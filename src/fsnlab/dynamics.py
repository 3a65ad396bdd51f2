"""Fixed-step simulation of diffusive network dynamics.

All models integrate x' = -(G (x) I_d) x [+ (B (x) I_d) u] for a generator
matrix G that may be a Laplacian, a leader-perturbed Laplacian, a signed
variant, or a reduced directed generator.  On this linear system one
fixed step of size dt is exactly the affine map x <- R x + c, with
A = -dt G, R = sum_{k<=K} A^k / k! and c = dt sum_{k<K} A^k / (k+1)! B u:
K = 4 is classical RK4 and K = 1 forward Euler.  The Kronecker structure
is never materialized: the d coordinates evolve independently and are
stepped one at a time, in order, so results do not depend on how the loop
is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import FiedlerClassification


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
    model: str = ""

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

    def at(self, t: float) -> np.ndarray:
        """State at the sample closest to time t."""
        k = int(np.argmin(np.abs(self.times - t)))
        return self.states[k]


def step_map(generator: np.ndarray, forcing: np.ndarray, dt: float,
             method: str) -> tuple[np.ndarray, np.ndarray]:
    """R, c of one step x <- R x + c of x' = forcing - G x (see the module)."""
    A = -dt * generator
    eye = np.eye(generator.shape[0])
    S = eye  # sum_{k<K} A^k / (k+1)! by Horner
    for j in range({"euler": 1, "rk4": 4}[method], 1, -1):
        S = eye + (A @ S) / j
    return eye + A @ S, dt * (S @ forcing)


def simulate(generator: np.ndarray,
             drive: Optional[tuple[np.ndarray, np.ndarray]],
             x0: np.ndarray,
             cfg: SimulationConfig = SimulationConfig(),
             model: str = "") -> Trajectory:
    """Integrate the network ODE from x0 and record every step.

    ``drive`` is (B, u) for leader-driven models and None for autonomous
    ones.  The step map R, c is built once; each state column is then
    advanced by x <- R x + c on its own, one column after the other.
    Forward Euler is rejected up front when dt exceeds the
    safe bound 1/(2 max_ii G), which a Gershgorin argument turns into a
    stability guarantee for Laplacian-type generators.
    """
    G = np.asarray(generator, dtype=float)
    n = G.shape[0]
    if G.shape != (n, n):
        raise SimulationError(f"generator must be square, got {G.shape}")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = x0[:, None]
    if x0.shape[0] != n:
        raise SimulationError(f"x0 has {x0.shape[0]} rows, generator has n={n}")
    d = x0.shape[1]

    if drive is None:
        forcing = np.zeros((n, d))
    else:
        B, u = np.asarray(drive[0], dtype=float), np.asarray(drive[1], dtype=float)
        if B.shape[0] != n or B.shape[1] != u.shape[0]:
            raise SimulationError(
                f"drive shapes B{B.shape} and u{u.shape} do not match n={n}")
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
    states = np.empty((steps + 1, n, d))
    states[0] = x0
    for dim in range(d):
        x = x0[:, dim].copy()
        f = c[:, dim]
        for k in range(steps):
            x = R @ x + f
            states[k + 1, :, dim] = x
    times = np.arange(steps + 1) * cfg.dt
    return Trajectory(times, states, model=model)


def steady_state_san(L_B: np.ndarray, B: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Closed-form limit of a leader-driven network: solve L_B X = B u.

    With identical input vectors every agent converges to that common
    input; heterogeneous inputs yield a point in their convex hull per
    agent.
    """
    L_B = np.asarray(L_B, dtype=float)
    B = np.asarray(B, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    try:
        out = np.linalg.solve(L_B, B @ u)
    except np.linalg.LinAlgError as exc:
        raise SimulationError(f"perturbed Laplacian is singular: {exc}") from exc
    return out


def fan_fsn_consensus_value(x0: np.ndarray,
                            cls: FiedlerClassification) -> np.ndarray:
    """Predicted consensus of an autonomous network on its reduced graph.

    The average of the initial rows over the core block plus all zero
    blocks (core-block case) or over the core node plus all zero blocks
    (core-node case).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = x0[:, None]
    members = sorted(cls.core_nodes | cls.zero_block_nodes)
    return x0[[m - 1 for m in members], :].mean(axis=0)


def empirical_rate(traj: Trajectory, target: np.ndarray,
                   rel_floor: float = 1e-13) -> float:
    """Exponential rate fitted to the tail of the error signal.

    Least-squares slope of log ||x(t) - target|| over the final half of the
    horizon, negated.  Samples that have decayed below ``rel_floor`` times
    the peak error are discarded (they measure arithmetic noise, not the
    dynamics); a tail that fails to decay raises.
    """
    target = np.asarray(target, dtype=float)
    if target.ndim == 1:
        target = target[:, None]
    errs = np.linalg.norm(
        (traj.states - target[None, :, :]).reshape(len(traj.times), -1), axis=1)
    half = len(errs) // 2
    t = traj.times[half:]
    e = errs[half:]
    usable = e > rel_floor * float(errs.max())
    if int(usable.sum()) < 2:
        raise SimulationError("error signal already at numerical floor; "
                              "shorten the horizon or relax the floor")
    t, e = t[usable], e[usable]
    if e[-1] >= errs[0]:
        raise SimulationError("error signal is not converging toward the target")
    slope = np.polyfit(t, np.log(e), 1)[0]
    return float(-slope)
