"""Fixed-step simulation of diffusive network dynamics.

All models integrate x' = -(G (x) I_d) x [+ (B (x) I_d) u] for a generator
G that is a Laplacian of any sign (sum |w| on the diagonal), leader-
perturbed or not, or a reduced directed generator.  On this linear system
one fixed step of size dt is exactly the affine map x <- R x + c, with
A = -dt G, R = sum_{k<=K} A^k / k! and c = dt sum_{k<K} A^k / (k+1)! B u:
K = 4 is classical RK4 and K = 1 forward Euler.  The Kronecker structure
is never materialized: the d coordinates evolve independently, each column
on its own, so a d-dimensional run is exactly d one-dimensional runs.  A
column advances b steps per product with the stacked powers of the step
map (:func:`step_powers`), which moves states by a few units of roundoff
against stepping one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import FiedlerClassification


UNIT_ROUNDOFF = np.finfo(float).eps / 2
NOISE_FLOOR = 1e6      # multiple of u max|x| below which an error is noise
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
    """R, c of one step x <- R x + c of x' = forcing - G x (see the module)."""
    A = -dt * generator
    eye = np.eye(generator.shape[0])
    S = eye  # sum_{k<K} A^k / (k+1)! by Horner
    for j in range({"euler": 1, "rk4": 4}[method], 1, -1):
        S = eye + (A @ S) / j
    return eye + A @ S, dt * (S @ forcing)


def step_powers(R: np.ndarray, c: np.ndarray,
                b: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacks P = [R; R^2; ...; R^b] and C = [c; R c + c; ...] of b steps.

    Row block k-1 of ``P @ x + C`` is the state k steps of x <- R x + c
    after x, so one product advances b steps.  Each power and offset is
    one multiplication by R from the previous one.
    """
    powers, offsets = [R], [c]
    for _ in range(b - 1):
        powers.append(R @ powers[-1])
        offsets.append(R @ offsets[-1] + c)
    return np.vstack(powers), np.vstack(offsets)


def simulate(generator: np.ndarray,
             drive: Optional[tuple[np.ndarray, np.ndarray]],
             x0: np.ndarray,
             cfg: SimulationConfig = SimulationConfig()) -> Trajectory:
    """Integrate the network ODE from x0 and record every step.

    ``drive`` is (B, u) for leader-driven models and None for autonomous
    ones.  The step map R, c is built once.  Each state column then
    advances on its own, b = max(1, min(``BLOCK``, steps // n,
    2**20 // n**2)) steps per product with the stacks of
    :func:`step_powers`, built from that column's offset alone so that
    columns never share a product.  Building the stack costs (b - 1) n^3
    flops, which b <= steps // n keeps below the steps n^2 of the stepping
    it replaces; the stack holds at most 2**20 doubles.  States agree with
    stepping x <- R x + c one at a time to a few units of roundoff per
    block.  Forward Euler is rejected up front when dt exceeds the safe
    bound 1/(2 max_ii G), which a Gershgorin argument turns into a
    stability guarantee for Laplacian-type generators.
    """
    G = np.asarray(generator, dtype=float)
    n = G.shape[0]
    if G.shape != (n, n):
        raise SimulationError(f"generator must be square, got {G.shape}")
    x0 = as_columns(x0)
    if x0.shape[0] != n:
        raise SimulationError(f"x0 has {x0.shape[0]} rows, generator has n={n}")
    d = x0.shape[1]

    if drive is None:
        forcing = np.zeros((n, d))
    else:
        B, u = np.asarray(drive[0], dtype=float), np.asarray(drive[1], dtype=float)
        if (B.ndim != 2 or u.ndim != 2 or B.shape[0] != n
                or B.shape[1] != u.shape[0]):
            raise SimulationError(
                f"drive shapes B{B.shape} and u{u.shape} do not match n={n}: "
                f"need B (n, m) and u (m, d)")
        forcing = B @ u
        if forcing.shape[1] != d:
            raise SimulationError(
                f"input dimension {forcing.shape[1]} != state dimension {d}")

    max_diag = float(G.diagonal().max()) if n else 0.0
    if cfg.method == "euler" and max_diag > 0 and cfg.dt >= 1.0 / (2.0 * max_diag):
        raise SimulationError(
            f"Euler step dt={cfg.dt} unstable: needs dt < {1.0/(2.0*max_diag):.4g} "
            f"for this generator")
    R, c = step_map(G, forcing, cfg.dt, cfg.method)

    steps = cfg.steps
    block = max(1, min(BLOCK, steps // max(n, 1), 2**20 // max(n, 1)**2))
    states = np.empty((steps + 1, n, d))
    states[0] = x0
    for dim in range(d):
        P, C = step_powers(R, c[:, [dim]], block)
        x = x0[:, [dim]]
        for start in range(0, steps, block):
            m = min(block, steps - start)
            run = (P[:m * n] @ x + C[:m * n]).reshape(m, n)
            states[start + 1:start + 1 + m, :, dim] = run
            x = run[-1][:, None]
    times = np.arange(steps + 1) * cfg.dt
    return Trajectory(times, states)


def steady_state_san(L_B: np.ndarray, B: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Closed-form limit of a leader-driven network: solve L_B X = B u.

    With identical input vectors every agent converges to that common
    input; heterogeneous inputs yield a point in their convex hull per
    agent.
    """
    L_B = np.asarray(L_B, dtype=float)
    B = np.asarray(B, dtype=float)
    u = as_columns(u)
    try:
        return np.linalg.solve(L_B, B @ u)
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


def fit_window(traj: Trajectory,
               target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Errors e(t) = ||x(t) - target|| per sample, and the mask to fit.

    The window is chosen by error level, not by time: the later half of
    the samples up to the last one whose error is above the rounding
    floor ``NOISE_FLOOR`` u max|x| (u the unit roundoff, max|x| the
    largest state or target entry), and of those only the ones above it.
    A stepped state carries a rounding error of about u max|x| per step
    that does not decay in a neutral direction (a consensus value).
    Measured against a simulated endpoint, the error of the bundled
    fixtures' verification runs levels off at 4e3 u max|x| or less, and
    even a drift of u max|x| per step would stay under 1e5 u max|x| over
    the 90,000 steps of the longest verification run.  The multiple 1e6
    keeps every fitted sample ten times above that bound and 250 times
    above the measured level, and a relative perturbation of 1e-13 of the
    states moves the lowest fitted sample by about 1e-3 of itself.
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
    return errs, usable


def empirical_rate(traj: Trajectory, target: np.ndarray) -> float:
    """Exponential rate fitted to the error signal above its rounding floor.

    Least-squares slope of log ||x(t) - target|| over the samples of
    :func:`fit_window`, negated.  Raises when fewer than two samples are
    above the floor, and when the error does not decay.
    """
    errs, usable = fit_window(traj, target)
    if int(usable.sum()) < 2:
        raise SimulationError("error signal already at numerical floor; "
                              "nothing above it to fit")
    t, e = traj.times[usable], errs[usable]
    if e[-1] >= errs[0]:
        raise SimulationError("error signal is not converging toward the target")
    slope = np.polyfit(t, np.log(e), 1)[0]
    return float(-slope)
