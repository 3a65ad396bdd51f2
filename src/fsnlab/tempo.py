"""Relative-tempo estimation and distributed neighbor selection.

The relative tempo of two agent groups is the limiting ratio of their
state-derivative norms; it equals the corresponding entry-norm ratio of the
eigenvector that dominates the derivative decay.  Agents can therefore rank
their neighbors from sampled data alone: each agent keeps a per-neighbor
ratio of successive sample differences and freezes its choice once the
estimates stop moving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .dynamics import Trajectory, step_map
from .graphs import (Arc, DirectedNetwork, Network, SemiAutonomousConfig,
                     is_connected, laplacian, perturbed_laplacian)
from .spectral import default_eps_gap, fiedler_pair, symmetric_eigh

EPS_STILL = 1e-14      # below this difference norm an agent counts as stalled
DEFAULT_DELTA = 0.01
DEFAULT_EPS = 1e-4
DEFAULT_TIE_MARGIN = 0.02
DEFAULT_PERSISTENCE = 25
ROUND_CAP = 100_000


class TempoError(ValueError):
    """Tempo estimation failed or a precondition is violated."""


def tempo_limit_from_eigvec(v: np.ndarray, group1: Iterable[int],
                            group2: Iterable[int]) -> float:
    """Entry-norm ratio ||v[group1]|| / ||v[group2]|| with 1-based groups."""
    v = np.asarray(v, dtype=float)
    idx1 = [i - 1 for i in group1]
    idx2 = [j - 1 for j in group2]
    if not idx1 or not idx2:
        raise TempoError("both groups must be nonempty")
    den = float(np.linalg.norm(v[idx2]))
    if den <= 1e-12 * float(np.abs(v).max()):
        raise TempoError("second group selects only zero entries")
    return float(np.linalg.norm(v[idx1])) / den


def g_ratio_series(traj: Trajectory, i: int, j: int,
                   eps_still: float = EPS_STILL) -> np.ndarray:
    """Per-sample ratio of difference norms between agents i and j.

    Entry k compares the step into sample k+1.  Rounds where agent j moved
    less than ``eps_still`` produce NaN (the stalled sentinel).
    """
    if len(traj.times) < 2:
        raise TempoError("trajectory too short for difference ratios")
    di = np.diff(traj.states[:, i - 1, :], axis=0)
    dj = np.diff(traj.states[:, j - 1, :], axis=0)
    num = np.linalg.norm(di, axis=1)
    den = np.linalg.norm(dj, axis=1)
    out = np.full(len(num), np.nan)
    ok = den >= eps_still
    out[ok] = num[ok] / den[ok]
    return out


def first_component_ratio(traj: Trajectory, u: int, v: int,
                          eps_still: float = EPS_STILL) -> np.ndarray:
    """Signed ratio of first-coordinate differences between agents u and v.

    Unlike the norm ratio this preserves sign, so opposite-moving agents
    (the two ends of a core pair) show a negative limit.
    """
    if len(traj.times) < 2:
        raise TempoError("trajectory too short for difference ratios")
    du = np.diff(traj.states[:, u - 1, 0])
    dv = np.diff(traj.states[:, v - 1, 0])
    out = np.full(len(du), np.nan)
    ok = np.abs(dv) >= eps_still
    out[ok] = du[ok] / dv[ok]
    return out


def _change_settled(change: Optional[float], prev_change: Optional[float],
                    eps: float) -> bool:
    """Whether one per-round estimate change looks like a converged tail.

    Small alone is not enough: an estimate crawling through a flat local
    extremum also changes slowly, but there the change flips sign and then
    grows again.  A genuine exponential tail keeps a constant sign with a
    non-increasing magnitude, which is what we insist on (deeply
    sub-threshold noise is exempt from the sign test).
    """
    if change is None or prev_change is None:
        return False
    if abs(change) >= eps:
        return False
    if abs(change) <= 1e-3 * eps:
        return True
    if abs(change) > abs(prev_change) + 1e-18:
        return False
    return change == 0.0 or prev_change == 0.0 or change * prev_change > 0.0


@dataclass(frozen=True)
class TempoEstimate:
    follower: int
    followed: int
    g: Optional[float]
    rounds: int
    retained: bool


@dataclass(frozen=True)
class TempoReport:
    entries: tuple[TempoEstimate, ...]

    def by_pair(self) -> dict[tuple[int, int], TempoEstimate]:
        return {(e.follower, e.followed): e for e in self.entries}


def run_algorithm1(net: Network, cfg: SemiAutonomousConfig, x0: np.ndarray,
                   delta: float = DEFAULT_DELTA,
                   eps: float | dict[int, float] = DEFAULT_EPS,
                   round_cap: int = ROUND_CAP,
                   tie_margin: float = DEFAULT_TIE_MARGIN,
                   persistence: int = DEFAULT_PERSISTENCE,
                   eps_still: float = EPS_STILL,
                   ) -> tuple[DirectedNetwork, TempoReport]:
    """Distributed slower-neighbor selection from sampled state data.

    Rounds are synchronous: every ``delta`` of simulated time each agent
    receives its neighbors' new samples, updates the difference-norm ratio
    per neighbor, and stops once all its ratios have stayed put (change
    below its threshold) for ``persistence`` consecutive rounds.  An agent
    then keeps exactly the neighbors whose final ratio exceeds
    1 + ``tie_margin``; the margin absorbs the finite termination accuracy
    so symmetric pairs (true ratio 1) are dropped from both sides.

    Raises when some agent has not settled after ``round_cap`` rounds.
    """
    if not is_connected(net):
        raise TempoError("distributed selection requires a connected network")
    L_B = perturbed_laplacian(net, cfg)
    u = cfg.input_vectors()
    B = cfg.input_matrix(net.n)
    forcing = B @ u
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = x0[:, None]
    if x0.shape != (net.n, u.shape[1]):
        raise TempoError(f"x0 shape {x0.shape} does not match "
                         f"(n={net.n}, d={u.shape[1]})")
    eps_map = _eps_map(net, eps)
    return _settle(net, L_B, forcing, x0,
                   lambda prev, cur: np.linalg.norm(cur - prev, axis=1),
                   math.inf, eps_map, delta, round_cap, tie_margin,
                   persistence, eps_still,
                   f" (delta={delta}, eps={eps_map})")


def run_distributed_fan_tree(net: Network, x0: np.ndarray,
                             delta: float = DEFAULT_DELTA,
                             eps: float | dict[int, float] = DEFAULT_EPS,
                             round_cap: int = 2 * ROUND_CAP,
                             tie_margin: float = DEFAULT_TIE_MARGIN,
                             persistence: int = DEFAULT_PERSISTENCE,
                             eps_still: float = EPS_STILL,
                             divergence_threshold: float = 1e3,
                             ) -> tuple[DirectedNetwork, TempoReport]:
    """Distributed slower-neighbor selection on an autonomous tree.

    Agents track the signed first-coordinate difference ratio per neighbor
    and keep those with a settled ratio above 1 + ``tie_margin`` or below
    -``tie_margin``.  A ratio whose magnitude keeps growing past
    ``divergence_threshold`` marks a neighbor that is about to stop moving
    altogether (a zero-entry core node): the pair is flagged as divergent
    and retained without waiting for the estimate to settle.

    Restricted to trees with nonnegative weights whose Laplacian has a
    well-separated second eigenvalue and no edge joining two zero-entry
    nodes; stars and other repeated-eigenvalue trees are rejected.
    """
    if len(net.edges) != net.n - 1 or not is_connected(net):
        raise TempoError("distributed autonomous selection needs a tree")
    if net.is_signed:
        raise TempoError("distributed autonomous selection needs nonnegative "
                         "weights; the tree has antagonistic (negative) links")
    L = laplacian(net)
    pair = fiedler_pair(L)
    if not pair.is_simple:
        raise TempoError("second Laplacian eigenvalue is repeated; "
                         "the selection rule is undefined on this tree")
    eps_zero = 1e-8 * float(np.abs(pair.vector).max())
    for e in net.edges:
        if (abs(pair.vector[e.i - 1]) <= eps_zero
                and abs(pair.vector[e.j - 1]) <= eps_zero):
            raise TempoError(f"edge ({e.i},{e.j}) joins two zero entries "
                             "(zero block); not supported distributively")

    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = x0[:, None]
    if x0.shape[0] != net.n:
        raise TempoError(f"x0 has {x0.shape[0]} rows, tree has n={net.n}")
    return _settle(net, L, np.zeros_like(x0), x0,
                   lambda prev, cur: cur[:, 0] - prev[:, 0],
                   divergence_threshold, _eps_map(net, eps), delta, round_cap,
                   tie_margin, persistence, eps_still,
                   "; the ratio sign may not be separating on this tree")


def _eps_map(net: Network, eps: float | dict[int, float]) -> dict[int, float]:
    return eps if isinstance(eps, dict) else {i: eps for i in range(1, net.n + 1)}


def _settle(net: Network, G: np.ndarray, forcing: np.ndarray, x0: np.ndarray,
            observable: Callable[[np.ndarray, np.ndarray], np.ndarray],
            divergence_threshold: float, eps_map: dict[int, float],
            delta: float, round_cap: int, tie_margin: float,
            persistence: int, eps_still: float,
            stall_hint: str) -> tuple[DirectedNetwork, TempoReport]:
    """The settle-and-retain loop both distributed selections share.

    Every round advances x' = forcing - G x by one RK4 step of ``delta``,
    applied as its affine map (:func:`step_map`), and reduces the sample
    difference to one ``observable`` value per agent.  Agent i's estimate
    for neighbor j is the ratio of the two values, kept from the last
    round where j's value cleared ``eps_still``.  An estimate whose
    magnitude grew past ``divergence_threshold`` for three rounds in a row
    is frozen as divergent.  An agent is done after ``persistence`` rounds
    in which every live estimate settled, and keeps the neighbors whose
    estimate diverged, exceeds 1 + ``tie_margin`` or lies below
    -``tie_margin``; a difference norm is never negative, so with a
    nonnegative margin only the second case can hold for it.
    Per-arc state is kept in plain lists, arcs grouped by follower.
    """
    n = net.n
    followed = [j for i in range(1, n + 1) for j in net.neighbors[i]]
    first = [0]
    for i in range(1, n + 1):
        first.append(first[-1] + len(net.neighbors[i]))
    ratio: list[Optional[float]] = [None] * len(followed)
    change: list[Optional[float]] = [None] * len(followed)
    prev_change: list[Optional[float]] = [None] * len(followed)
    growth = [0] * len(followed)
    divergent = [False] * len(followed)
    streak = [0] * n
    done_round = [0] * n
    active = list(range(1, n + 1))

    R, c = step_map(G, forcing, delta, "rk4")
    cur = x0
    for k in range(1, round_cap + 1):
        prev, cur = cur, R @ cur + c
        obs = observable(prev, cur).tolist()
        waiting = []
        for i in active:
            own, eps = obs[i - 1], eps_map[i]
            settled = True
            for a in range(first[i - 1], first[i]):
                if divergent[a]:
                    continue
                old = ratio[a]
                other = obs[followed[a] - 1]
                if abs(other) >= eps_still:
                    ratio[a] = own / other
                new = ratio[a]
                known = new is not None and old is not None
                if (known and abs(new) > divergence_threshold
                        and abs(new) > abs(old)):
                    growth[a] += 1
                    if growth[a] >= 3:
                        divergent[a] = True
                        continue
                else:
                    growth[a] = 0
                prev_change[a] = change[a]
                change[a] = new - old if known else None
                if not _change_settled(change[a], prev_change[a], eps):
                    settled = False
            streak[i - 1] = streak[i - 1] + 1 if settled else 0
            if streak[i - 1] >= persistence:
                done_round[i - 1] = k
            else:
                waiting.append(i)
        active = waiting
        if not active:
            break
    else:
        raise TempoError(f"agents {active} did not settle within "
                         f"{round_cap} rounds{stall_hint}")

    arcs = []
    entries = []
    for i in range(1, n + 1):
        for a in range(first[i - 1], first[i]):
            j, g = followed[a], ratio[a]
            retained = divergent[a] or (g is not None and (g > 1.0 + tie_margin
                                                           or g < -tie_margin))
            entries.append(TempoEstimate(i, j, g, done_round[i - 1], retained))
            if retained:
                arcs.append(Arc(i, j, net.weights[(i, j)]))
    dnet = DirectedNetwork(n, tuple(arcs), name=f"{net.name}-fsn-distributed")
    return dnet, TempoReport(tuple(entries))


def tempo_limit_oracle(M: np.ndarray, x0: np.ndarray, group1: Iterable[int],
                       group2: Iterable[int],
                       eps_gap: float | None = None,
                       min_projection: float = 1e-6) -> float:
    """Closed-form limit of the difference-norm ratio for x' = M x.

    Works directly from the eigendecomposition of the symmetric generator:
    only the eigenspace of the largest nonzero eigenvalue survives in the
    derivative as t grows, and the limit is a quadratic-form ratio over
    that eigenspace.  Serves as an independent check on simulated ratios,
    including the case of a repeated dominant eigenvalue.
    """
    M = np.asarray(M, dtype=float)
    x0 = np.asarray(x0, dtype=float).ravel()
    if eps_gap is None:
        eps_gap = default_eps_gap(M)
    w, V = symmetric_eigh(M)
    nonzero = [i for i in range(len(w)) if abs(w[i]) > eps_gap]
    if not nonzero:
        raise TempoError("generator has no nonzero eigenvalue")
    lam_dom = max(w[i] for i in nonzero)
    dom = [i for i in nonzero if abs(w[i] - lam_dom) <= eps_gap]

    beta = V.T @ x0
    proj = math.sqrt(sum(beta[i] ** 2 for i in dom))
    if proj <= min_projection * max(1.0, float(np.linalg.norm(x0))):
        raise TempoError("initial state is orthogonal to the dominant "
                         "eigenspace; the limit formula degenerates")

    idx1 = [i - 1 for i in group1]
    idx2 = [j - 1 for j in group2]
    if not idx1 or not idx2:
        raise TempoError("both groups must be nonempty")

    y = V[:, dom] @ (w[dom] * beta[dom])
    num = float(y[idx1] @ y[idx1])
    den = float(y[idx2] @ y[idx2])
    if den <= 0.0 or den < 1e-24 * max(num, 1.0):
        raise TempoError("second group has no component on the dominant "
                         "eigenspace; the limit formula degenerates")
    return math.sqrt(num / den)
