"""Relative-tempo estimation and distributed neighbor selection.

The relative tempo of two agent groups is the limiting ratio of their
state-derivative norms; it equals the corresponding entry-norm ratio of the
eigenvector that dominates the derivative decay.  Agents can therefore rank
their neighbors from sampled data alone: each agent keeps a per-neighbor
ratio of successive sample differences, updates it while the neighbor's
difference stands above the rounding noise of the states (a floor of unit
roundoff times the largest state seen, over ``eps``), and decides on the
last such estimate.  :func:`g_ratio_series` gives, under the same floor,
the estimate held at each sample of a simulated trajectory, and
:func:`sampled_tempo` checks its last value against the eigenvector limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import Stepper, Trajectory, initial_state
from .graphs import DirectedNetwork, Network, _integer
from .model import Model
from .thresholds import (DEFAULT_EPS, above_floor, retains, tempo_agrees,
                         zero_entries)

DEFAULT_DELTA = 0.01
ROUND_CAP = 100_000
SPAN_ELEMENTS = 2**14  # doubles per array of one super-block of _settle


class TempoError(ValueError):
    """Tempo estimation failed or a precondition is violated."""


def g_ratio_series(traj: Trajectory, i: int, j: int,
                   first_component: bool = False) -> np.ndarray:
    """Per-sample estimate of g_ij held by agent i, as in :func:`_settle`.

    The observable is a sample difference's norm, or with ``first_component``
    its signed first coordinate (opposite-moving agents, the two ends of a
    core pair, then show a negative limit).  Entry k is obs_i / obs_j of the
    last step into samples 1..k+1 whose obs_j is above the noise floor at
    ``DEFAULT_EPS``, NaN before the first such step.  An agent id that is
    not an integer (a bool is not one) or lies outside 1..n is refused.
    """
    for a in (i, j):
        if not (_integer(a) and 1 <= a <= traj.n):
            raise TempoError(f"agent id {a!r} is not an integer in 1..{traj.n}")
    if len(traj.times) < 2:
        raise TempoError("trajectory too short for difference ratios")
    observable = _first_coordinate if first_component else _norm_over_d
    # 2 x d x samples, agent-major as _settle lays out its states: numpy then
    # reduces d in the engine's order, and faster than over a contiguous d.
    x = np.array([traj.states[:, a - 1].T for a in (i, j)])
    obs = observable(np.diff(x))
    seen = np.maximum.accumulate(np.abs(x).max(axis=1), axis=1)[:, 1:]
    above = above_floor(obs, seen, 0, 1, DEFAULT_EPS)
    ratio = np.divide(obs[0], obs[1], out=np.full(len(above), np.nan),
                      where=above)
    k = np.maximum.accumulate(np.where(above, np.arange(len(above)), -1))
    return np.where(k >= 0, ratio[k], np.nan)


def sampled_tempo(traj: Trajectory, vec: np.ndarray, i: int, j: int,
                  first_component: bool = False,
                  ) -> tuple[np.ndarray, float | str, Optional[bool]]:
    """Agent i's :func:`g_ratio_series` for neighbor j, the eigenvector limit
    in ``vec`` (``Model.tempo_vector``): v_i/v_j with ``first_component``,
    else its magnitude, 0 with v_i zero; and whether the last held value
    :func:`~fsnlab.thresholds.tempo_agrees` with it.  With v_j zero there is
    no limit: the text that stands for it says why (the ratio diverges, or
    both entries sit in a zero block, whose sampled ratio follows another
    mode) and the verdict is None.  An entry is zero as :func:`zero_entries`
    says."""
    series = g_ratio_series(traj, i, j, first_component)
    zero = zero_entries(vec)
    if zero[j - 1]:
        return series, ("none (both entries sit at zero: no eigenvector limit)"
                        if zero[i - 1] else "diverges (neighbor sits at a zero entry)"), None
    ratio = 0.0 if zero[i - 1] else float(vec[i - 1] / vec[j - 1])
    limit = ratio if first_component else abs(ratio)
    return series, limit, bool(tempo_agrees(series[-1], limit))


@dataclass(frozen=True)
class TempoEstimate:
    """One arc's decision (see :func:`_settle`); ``g`` is always a float."""
    follower: int
    followed: int
    g: float
    rounds: int
    retained: bool


@dataclass(frozen=True)
class TempoReport:
    entries: tuple[TempoEstimate, ...]


def distributed_select(model: Model, x0: np.ndarray,
                       delta: float = DEFAULT_DELTA, eps: float = DEFAULT_EPS,
                       round_cap: Optional[int] = None,
                       ) -> tuple[DirectedNetwork, TempoReport]:
    """Distributed slower-neighbor selection from sampled state data.

    Rounds are synchronous: every ``delta`` of simulated time each agent
    receives its neighbors' new samples of x' = f - G x (G and the
    forcing f = B u from ``model``) and updates a ratio per neighbor while
    that neighbor's sample difference is above the noise floor (see
    :func:`_settle`); ``eps`` is the relative accuracy each estimate is
    resolved to.  With leaders the ratio is of difference norms, which a
    gauge D = diag(+-1) of a balanced signed network leaves unchanged; an
    agent keeps the neighbors whose last estimate exceeds
    1 + ``TIE_MARGIN``, a margin that drops symmetric pairs (true ratio 1)
    from both sides (:func:`~fsnlab.thresholds.retains`).
    Without leaders the ratio is of signed first coordinates, and an
    estimate below -``TIE_MARGIN`` is kept too: a zero-entry core
    neighbor's difference falls below the floor first, so its follower's
    last ratio is large and it is kept.  That case is restricted to trees
    with nonnegative weights, a simple Fiedler value and no edge joining
    two zero entries.  ``round_cap`` defaults to ``ROUND_CAP`` with leaders
    and twice that without.  An entry's ``g`` is its arc's last estimate, a
    float, and its ``rounds`` the round of its agent's last estimate.

    Raises when ``delta`` or ``eps`` is not finite and positive, when x0 has
    an entry that is not finite or does not fit the network, when the network
    is in pieces, leaderless and not a tree, or unbalanced with its leader
    wiring (before any round), when RK4 steps of ``delta`` leave the float
    range, when an estimate is still above its floor after ``round_cap``
    rounds, and when an arc never had an estimate above its floor.
    """
    net, forcing = model.net, model.forcing
    x0 = initial_state(x0, TempoError)
    model.check_connected()
    if forcing is None:
        if len(net.w) != net.n - 1:
            raise TempoError("distributed autonomous selection needs a tree")
        if net.is_signed:
            raise TempoError("distributed autonomous selection needs nonnegative "
                             "weights; the tree has antagonistic (negative) links")
        zero = zero_entries(model.simple_pair("fan-fsn").vector)
        both = zero[net.i - 1] & zero[net.j - 1]
        if both.any():
            i, j = net.i[both][0], net.j[both][0]
            raise TempoError(f"edge ({i},{j}) joins two zero entries "
                             "(zero block); not supported distributively")
        if x0.shape[0] != net.n:
            raise TempoError(f"x0 has {x0.shape[0]} rows, tree has n={net.n}")
        forcing, observable = np.zeros_like(x0), _first_coordinate
        cap, hint = 2 * ROUND_CAP, "; the ratio sign may not be separating on this tree"
    else:
        if x0.shape != forcing.shape:
            raise TempoError(f"x0 shape {x0.shape} does not match "
                             f"(n={net.n}, d={forcing.shape[1]})")
        observable = _norm_over_d
        cap, hint = ROUND_CAP, f" (delta={delta}, eps={eps})"
    for name, value in (("eps", eps), ("delta", delta)):
        if not (math.isfinite(value) and value > 0):
            raise TempoError(f"{name} must be finite and positive, got {value}")
    model.check_balanced()      # refuse by name before any round runs
    return _settle(net, model.generator(), forcing, x0, observable, eps, delta,
                   cap if round_cap is None else round_cap, hint)


def _settle(net: Network, G: np.ndarray, forcing: np.ndarray, x0: np.ndarray,
            observable: Callable[[np.ndarray], np.ndarray],
            eps: float, delta: float, round_cap: int,
            stall_hint: str) -> tuple[DirectedNetwork, TempoReport]:
    """The decide-and-retain loop of :func:`distributed_select`.

    Every round advances x' = forcing - G x by one RK4 step of ``delta``,
    applied as its affine map, and reduces each agent's sample difference
    to one ``observable`` value.  Agent i's estimate for neighbor j is
    g = obs_i / obs_j, updated in every round where |obs_j| > u M_ij / eps,
    with u the unit roundoff and M_ij the largest |x_i|, |x_j| seen so far
    (over coordinates and rounds, data agent i has).  A difference of two
    states of size M carries a rounding error of about u M, so above that
    floor obs_j, and with it g, is resolved to a relative accuracy of about
    eps; below it g would be noise.  The running maximum keeps the floor
    from sinking with states that decay toward zero.  Each arc decides on
    its last such estimate, and an agent's ``rounds`` is the round of its
    last estimate.  The run ends after the first block of rounds in which
    no arc is above its floor; it is refused past ``round_cap`` rounds,
    naming the agents of the arcs with an estimate in the final block, and
    if an arc never had an estimate, so every returned g is a float.
    An agent keeps the neighbors whose estimate exceeds 1 + ``TIE_MARGIN``
    or lies below -``TIE_MARGIN``; a difference norm is never negative, so
    only the first case can hold for it.

    One :class:`~fsnlab.dynamics.Stepper` steps all d columns, a block of
    rounds per product, writing the states in place.  The bookkeeping
    runs once per super-block of consecutive blocks, as many as keep the
    per-arc and per-coordinate arrays of a pass (arcs x rounds and
    agents x d x rounds) within ``SPAN_ELEMENTS`` doubles, and at least
    one.  It lays the super-block out agent-major, so that reading an
    arc's two agents copies whole rows, and takes the observable over all
    its rounds.

    A certificate in O(n L) for L rounds comes first: with b_i the largest
    |x_i| seen up to the super-block's end and l_j the least |obs_j| in it,
    every arc (i, j) whose l_j is above the floor of b (``above_floor``) is
    above it in every round, since no running maximum in the super-block
    exceeds b and rounding a product by the positive u / eps is monotone.
    When it holds for every arc, each arc's estimate is that of the last
    round, bit for bit what the full test gives.  Only otherwise, or on a
    network with no arcs (whose first block is quiet, so the run ends in
    round 0), does the super-block pay for the running maximum and the
    per-arc floor test over all its rounds, and then the termination rule
    block by block: the arcs decide on their last estimate before the first
    block with none above its floor, and the rounds computed after that
    block are discarded.  A NaN fails the certificate.  Step stacks that
    leave the float range are refused before the first round, and states
    that do after the stepping of their super-block.
    ``observable`` maps the differences of a super-block, agents x d x
    rounds, to agents x rounds.  numpy reduces that strided d axis in
    coordinate order, so for d >= 8 a norm may differ in its last bits
    from ``np.linalg.norm`` over a contiguous d axis, which sums pairwise.
    """
    n, d = x0.shape
    indptr, arc_j, edge = net.adjacency
    arc_i = np.repeat(np.arange(n), np.diff(indptr))
    m = len(arc_j)

    stepper = Stepper(G, forcing, delta, "rk4", TempoError(
        f"RK4 steps of delta={delta} leave the float range on this network; "
        f"take a smaller delta"))
    block = stepper.block
    span = block * max(1, SPAN_ELEMENTS // (block * max(m, n * d)))

    g = np.zeros(m)
    last = np.zeros(m, dtype=int)       # round of each arc's estimate, 0 for none
    cur, peak = x0, np.abs(x0).max(axis=1)
    # Growing states may overflow the observable before the states
    # themselves; the finiteness check after the stepping refuses them.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, round_cap, span):
            length = min(span, round_cap - start)
            x = np.empty(((length + 1) * n, d))
            x[:n] = cur
            cur = stepper.advance(cur, x[n:])
            if not np.isfinite(cur).all():
                raise TempoError(f"states left the float range by round "
                                 f"{start + length}; take a smaller delta than {delta}")
            xt = np.ascontiguousarray(x.reshape(length + 1, n * d).T)
            xt = xt.reshape(n, d, length + 1)       # agents x d x rounds
            obs = observable(xt[:, :, 1:] - xt[:, :, :-1])
            seen = np.abs(xt).max(axis=1)
            bound = np.maximum(peak, seen.max(axis=1))
            low = np.abs(obs).min(axis=1)
            if m and above_floor(low, bound, arc_i, arc_j, eps).all():
                # Every arc is above its floor in every round of the super-block.
                k, hit, done = np.full(m, length - 1), np.ones(m, dtype=bool), False
            else:
                seen[:, 0] = peak
                above = above_floor(obs, np.maximum.accumulate(seen, axis=1)[:, 1:],
                                    arc_i, arc_j, eps)
                firsts = np.arange(0, length, block)
                quiet = ~np.logical_or.reduceat(above.any(axis=0), firsts)
                done = quiet.any()
                end = firsts[quiet.argmax()] if done else length
                if end == 0:
                    break
                k = end - 1 - above[:, end - 1::-1].argmax(axis=1)
                hit = above[np.arange(m), k]
            g[hit] = obs[arc_i[hit], k[hit]] / obs[arc_j[hit], k[hit]]
            last[hit] = start + 1 + k[hit]
            peak = bound        # the running maximum at the super-block's end
            if done:
                break
        else:
            stalled = arc_i[last > (round_cap - 1) // block * block]  # in the last block
            raise TempoError(f"agents {sorted(set((stalled + 1).tolist()))} did "
                             f"not settle within {round_cap} rounds{stall_hint}")
    if not last.all():
        unknown = list(zip(*(np.array([arc_i, arc_j])[:, last == 0] + 1).tolist()))
        raise TempoError(f"arcs {unknown} got no estimate above the noise floor "
                         f"(delta={delta}, eps={eps})")

    rounds = np.zeros(n, dtype=int)
    np.maximum.at(rounds, arc_i, last)
    kept = retains(g)
    columns = (a.tolist() for a in (arc_i + 1, arc_j + 1, g, rounds[arc_i], kept))
    dnet = DirectedNetwork.from_arrays(n, arc_i[kept] + 1, arc_j[kept] + 1,
                                       net.w[edge[kept]],
                                       name=f"{net.name}-fsn-distributed")
    return dnet, TempoReport(tuple(TempoEstimate(*e) for e in zip(*columns)))


def _first_coordinate(dx: np.ndarray) -> np.ndarray:
    """First coordinate of an (agents, d, rounds) array, sign kept."""
    return dx[:, 0]


def _norm_over_d(dx: np.ndarray) -> np.ndarray:
    """Euclidean norm over axis 1 of an (agents, d, rounds) array."""
    return np.linalg.norm(dx, axis=1)
