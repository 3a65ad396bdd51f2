"""Fixed-step simulation of diffusive network dynamics.

All models integrate x' = f - G x for a generator G that is a Laplacian of
any sign (sum |w| on the diagonal), leader-perturbed or not, or a reduced
directed generator, and a forcing f: the n-by-d array B u of the leaders'
inputs u wired in by B, or none without leaders.  On this linear system one
fixed step of size dt is exactly the affine map x <- R x + c, with
A = -dt G, R = sum_{k<=K} A^k / k! and c = dt sum_{k<K} A^k / (k+1)! f:
K = 4 is classical RK4 and K = 1 forward Euler.  The Kronecker structure
is never materialized: the d coordinates evolve independently.  One
stepper, :class:`Stepper`, advances a state b steps per product with the
stacked powers of the step map (:func:`step_powers`), which moves states
by a few units of roundoff against stepping one at a time.
:func:`simulate` runs it one column at a time, so a d-dimensional run is
exactly d one-dimensional runs; the distributed engine
(:func:`fsnlab.tempo.distributed_select`) runs it on all columns at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .blocks import FiedlerClassification
from .thresholds import NOISE_FLOOR, UNIT_ROUNDOFF

BLOCK = 64             # steps advanced per product of stacked step powers


class SimulationError(ValueError):
    """Bad simulation setup or a trajectory that does not converge."""


@dataclass(frozen=True)
class SimulationConfig:
    dt: float = 0.01
    horizon: float = 60.0
    method: str = "rk4"

    def __post_init__(self):
        if self.dt <= 0:
            raise SimulationError(f"dt must be positive, got {self.dt}")
        if self.horizon < self.dt:
            raise SimulationError(f"horizon {self.horizon} shorter than dt {self.dt}")
        if not (math.isfinite(self.dt) and math.isfinite(self.horizon)):
            raise SimulationError(f"dt and horizon must be finite, got dt={self.dt}, "
                                  f"horizon={self.horizon}")
        if not math.isfinite(self.horizon / self.dt):
            raise SimulationError(f"horizon {self.horizon} over dt {self.dt} is "
                                  f"not a finite number of steps")
        if self.method not in ("euler", "rk4"):
            raise SimulationError(f"unknown method {self.method!r}")

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states: times[k] pairs with states[k] (n-by-d)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if s.ndim != 3 or len(t) != s.shape[0]:
            raise SimulationError("states must be (samples, n, d) aligned with times")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def d(self) -> int:
        return self.states.shape[2]


def as_columns(x) -> np.ndarray:
    """x as a float array, a 1-D state taken as one column."""
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def step_map(generator: np.ndarray, forcing: np.ndarray, dt: float,
             method: str) -> tuple[np.ndarray, np.ndarray]:
    """R, c of one step x <- R x + c of x' = forcing - G x (see the module).

    A step too large for the generator's scale gives inf or NaN entries,
    without a numpy warning; :func:`step_powers` carries them into its
    stacks, which :class:`Stepper` refuses.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        A = -dt * generator
        eye = np.eye(generator.shape[0])
        S = eye  # sum_{k<K} A^k / (k+1)! by Horner
        for j in range({"euler": 1, "rk4": 4}[method], 1, -1):
            S = eye + (A @ S) / j
        return eye + A @ S, dt * (S @ forcing)


def step_powers(R: np.ndarray, offsets: list[np.ndarray],
                b: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Stack P = [R; R^2; ...; R^b] of b steps, built once, and for each
    offset c of ``offsets`` its stack C = [c; R c + c; ...].

    Row block k-1 of ``P @ x + C`` is the state k steps of x <- R x + c
    after x, so one product advances b steps.  Each power and offset is
    one multiplication by R from the previous one, written into its row
    block of the preallocated stacks, and each offset then adds c in
    place.  Powers that leave the float range come back as inf or NaN
    entries without a numpy warning.
    """
    n = R.shape[0]
    P, stacks = np.empty((b * n, n)), [np.empty((b * n, c.shape[1])) for c in offsets]
    P[:n] = R
    for C, c in zip(stacks, offsets):
        C[:n] = c
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n, b * n, n):
            np.matmul(R, P[k - n:k], out=P[k:k + n])
            for C, c in zip(stacks, offsets):
                offset = np.matmul(R, C[k - n:k], out=C[k:k + n])
                offset += c
    return P, stacks


class Stepper:
    """x <- R x + c advanced ``block`` steps per product of its stacks P
    and C from :func:`step_powers`."""

    def __init__(self, P: np.ndarray, C: np.ndarray, block: int):
        self.block, self._P, self._C = block, P, C

    def advance(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the states after x into the rows of ``out``, n per step
        and ``block`` steps per product, and return the last one.

        Each product is written in place into its rows of ``out``, which
        may be a strided view; the state carried to the next product is
        contiguous, a copy where those rows are not.  States that leave
        the float range come back as inf or NaN without a numpy warning;
        the callers refuse them.
        """
        n, rows = x.shape[0], self._P.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(out), rows):
                stop = min(start + rows, len(out))
                run = np.matmul(self._P[:stop - start], x, out=out[start:stop])
                run += self._C[:stop - start]
                x = np.ascontiguousarray(out[stop - n:stop])
        return x


def steppers(generator: np.ndarray, forcing: np.ndarray, dt: float,
             method: str, groups: Iterable, refusal: Exception,
             steps: Optional[int] = None) -> list[Stepper]:
    """A :class:`Stepper` of x' = forcing - G x per group of state columns;
    raises ``refusal`` when a stack leaves the float range.

    The step map R, c and the power stack P are built once, from all
    columns; each group's offset stack holds its own columns of c.  The
    block is b = max(1, min(``BLOCK``, steps // n, 2**20 // n**2)), without
    the middle term when ``steps`` is None: the stack holds at most 2**20
    doubles, and building it costs (b - 1) n^3 flops, which b <= steps // n
    keeps below the steps n^2 of the stepping it replaces.
    """
    R, c = step_map(generator, forcing, dt, method)
    n = max(generator.shape[0], 1)
    cap = BLOCK if steps is None else steps // n
    block = max(1, min(BLOCK, cap, 2**20 // n**2))
    P, stacks = step_powers(R, [c[:, columns] for columns in groups], block)
    if not all(np.isfinite(a).all() for a in (P, *stacks)):
        raise refusal
    return [Stepper(P, C, block) for C in stacks]


def simulate(generator: np.ndarray, forcing: Optional[np.ndarray],
             x0: np.ndarray,
             cfg: SimulationConfig = SimulationConfig()) -> Trajectory:
    """Integrate x' = forcing - G x from x0 and record every step.

    ``forcing`` is the n-by-d array B u of a leader-driven model and None
    for an autonomous one.  Each state column advances on its own, with a
    :class:`Stepper` of its own column of the step map's offset (see
    :func:`steppers`), so that columns never share a product; the states
    agree with stepping x <- R x + c one at a time to a few units of
    roundoff per block.  Forward Euler is rejected up front when dt
    exceeds the safe bound 1/(2 max_ii G), which a Gershgorin argument
    turns into a stability guarantee for Laplacian-type generators.  A
    step map whose stacked powers leave the float range is refused before
    stepping, and a run whose last state does is refused after it.  A run
    whose states do not fit in memory is refused before any step.
    """
    G = np.asarray(generator, dtype=float)
    n = G.shape[0]
    if G.shape != (n, n):
        raise SimulationError(f"generator must be square, got {G.shape}")
    x0 = as_columns(x0)
    if x0.shape[0] != n:
        raise SimulationError(f"x0 has {x0.shape[0]} rows, generator has n={n}")
    d = x0.shape[1]
    forcing = np.zeros((n, d)) if forcing is None else np.asarray(forcing, dtype=float)
    if forcing.shape != (n, d):
        raise SimulationError(f"forcing of shape {forcing.shape} does not match "
                              f"n={n} and the state dimension d={d}")

    max_diag = float(G.diagonal().max()) if n else 0.0
    if cfg.method == "euler" and max_diag > 0 and cfg.dt >= 1.0 / (2.0 * max_diag):
        raise SimulationError(
            f"Euler step dt={cfg.dt} unstable: needs dt < {1.0/(2.0*max_diag):.4g} "
            f"for this generator")
    steps = cfg.steps
    try:
        states = np.empty((steps + 1, n, d))
    except (ValueError, MemoryError):
        raise SimulationError(f"the states of {steps:.4g} steps of dt={cfg.dt} "
                              f"do not fit in memory; take a larger dt or a "
                              f"shorter horizon") from None
    states[0] = x0
    refusal = SimulationError(f"{cfg.method} steps of dt={cfg.dt} leave the "
                              f"float range on this generator; take a smaller dt")
    columns = steppers(G, forcing, cfg.dt, cfg.method, ([k] for k in range(d)),
                       refusal, steps)
    for dim, stepper in enumerate(columns):
        stepper.advance(x0[:, [dim]], states[1:, :, dim].reshape(-1, 1))
    if not np.isfinite(states[-1]).all():
        raise SimulationError(f"states left the float range within {steps} steps "
                              f"of dt={cfg.dt}; take a smaller dt")
    times = np.arange(steps + 1) * cfg.dt
    return Trajectory(times, states)


def steady_state_san(L_B: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """Closed-form limit of a leader-driven network: solve L_B X = forcing.

    With identical input vectors every agent converges to that common
    input; heterogeneous inputs yield a point in their convex hull per
    agent.
    """
    try:
        return np.linalg.solve(np.asarray(L_B, dtype=float), as_columns(forcing))
    except np.linalg.LinAlgError as exc:
        raise SimulationError(f"perturbed Laplacian is singular: {exc}") from exc


def fan_fsn_consensus_value(x0: np.ndarray,
                            cls: FiedlerClassification) -> np.ndarray:
    """Predicted consensus of an autonomous network on its reduced graph.

    The average of the initial rows over the core block plus all zero
    blocks (core-block case) or over the core node plus all zero blocks
    (core-node case).
    """
    x0 = as_columns(x0)
    members = sorted(cls.core_nodes | cls.zero_block_nodes)
    return x0[[m - 1 for m in members], :].mean(axis=0)


def fitted_rate(traj: Trajectory, target: np.ndarray) -> tuple[float, float]:
    """Exponential rate fitted to the error signal above its rounding
    floor, and the mean time of the samples it was fitted on.

    The rate is the negated least-squares slope of log e(t), with
    e(t) = ||x(t) - target|| per sample.  The samples fitted are chosen by
    error level, not by time: the later half of the samples up to the last
    one whose error is above the rounding floor ``NOISE_FLOOR`` u max|x|
    (u the unit roundoff, max|x| the largest state or target entry), and
    of those only the ones above it.  A stepped state carries a rounding
    error of about u max|x| per step that does not decay in a neutral
    direction (a consensus value).  Measured against a simulated endpoint,
    the error of the bundled fixtures' verification runs levels off at
    4e3 u max|x| or less, and even a drift of u max|x| per step would stay
    under 1e5 u max|x| over the 90,000 steps of the longest verification
    run.  The multiple 1e6 keeps every fitted sample ten times above that
    bound and 250 times above the measured level, and a relative
    perturbation of 1e-13 of the states moves the lowest fitted sample by
    about 1e-3 of itself.  Raises when fewer than two samples are above
    the floor, and when the error does not decay.
    """
    target = as_columns(target)
    errs = np.linalg.norm(
        (traj.states - target[None, :, :]).reshape(len(traj.times), -1), axis=1)
    scale = max(float(np.abs(traj.states).max(initial=0.0)),
                float(np.abs(target).max(initial=0.0)))
    above = errs > NOISE_FLOOR * UNIT_ROUNDOFF * scale
    last = len(errs) - 1 - int(np.argmax(above[::-1]))
    usable = np.zeros_like(above)
    usable[last // 2:last + 1] = above[last // 2:last + 1]
    if int(usable.sum()) < 2:
        raise SimulationError("error signal already at numerical floor; "
                              "nothing above it to fit")
    t, e = traj.times[usable], errs[usable]
    if e[-1] >= errs[0]:
        raise SimulationError("error signal is not converging toward the target")
    slope = np.polyfit(t, np.log(e), 1)[0]
    return float(-slope), float(t.mean())
