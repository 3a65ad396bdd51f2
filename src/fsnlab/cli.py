"""Command-line front end.

Subcommands: analyze, select, simulate, tempo, distributed-select, compare.
Network arguments accept a file path or the name of a bundled fixture
(g6, g8, g8-signed, g12, t12).  Random initial states, used whenever a file
carries no x0, derive from the FSNLAB_SEED environment variable (default 7).

Exit codes: 0 success and all requested verifications passed, 1 a
verification failed or a computation could not complete, 2 bad usage or an
unreadable/invalid input file.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .blocks import ClassificationError
from .dynamics import (SimulationConfig, SimulationError, Trajectory,
                       fitted_rate, simulate)
from .graphs import (DirectedNetwork, GraphError, Network,
                     SemiAutonomousConfig, is_connected,
                     structural_balance_partition)
from .model import MODES, Model
from .netfile import (FIXTURE_NAMES, NetworkFileError, csv_rows,
                      csv_stamps, emit_trajectory, fixture_text, json_text,
                      parse_arc_file, parse_network_file, serialize_arcs)
from .selection import reduced_spectrum
from .spectral import SpectralError
from .tempo import DEFAULT_DELTA, TempoError, distributed_select, sampled_tempo
from .thresholds import (DEFAULT_EPS, EIG_TOL, HORIZON_CLAMP, HORIZON_E_FOLDINGS,
                         HORIZON_RATE_FLOOR, RANK_TOL, RATE_GUARD, RATE_TOL,
                         SIM_TOL, TEMPO_TOL, same_eigenvalue)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2


def _load(source: str):
    """Load a network from a path or a bundled fixture name."""
    path = Path(source)
    if path.exists():
        return parse_network_file(path.read_bytes())
    if source in FIXTURE_NAMES:
        return parse_network_file(fixture_text(source))
    raise NetworkFileError(
        f"{source!r} is neither a readable file nor a bundled fixture "
        f"({', '.join(FIXTURE_NAMES)})")


def _resolve_x0(net: Network, cfg: Optional[SemiAutonomousConfig],
                x0: Optional[np.ndarray]) -> np.ndarray:
    if x0 is None:
        d = cfg.d if cfg is not None and cfg.d is not None else 1
        seed = os.environ.get("FSNLAB_SEED", "7")
        if not (seed.isascii() and seed.isdecimal()):
            raise NetworkFileError(
                f"FSNLAB_SEED must be a non-negative integer, got {seed!r}")
        x0 = np.random.default_rng(int(seed)).random((net.n, d))
    return x0


def _fmt(value: float, tol: float) -> str:
    return f"{value:.6g} (tol {tol:g})"


def _print_arcs(dnet: DirectedNetwork) -> None:
    print("".join([f"  {i} <- {j}   w={w:g}\n" for i, j, w in zip(
        dnet.i.tolist(), dnet.j.tolist(), dnet.w.tolist())]), end="")


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    net, cfg, _ = _load(args.network)
    model = Model(net, cfg)
    print(f"network {net.name or args.network}: n={net.n}, "
          f"{len(net.w)} edges, {'signed' if net.is_signed else 'unsigned'}")
    connected = is_connected(net)
    print(f"connected: {connected}")

    pairs = model.spectrum(min(net.n, 3))
    label = "signed Laplacian" if net.is_signed else "Laplacian"
    vals = ", ".join(f"{p.value:.6g}" for p in pairs)
    print(f"{label} spectrum (smallest {len(pairs)}): {vals}  "
          f"(residual tol {EIG_TOL:g})")

    if net.is_signed and connected:
        part = structural_balance_partition(net)
        if part is None:
            print("structural balance: unbalanced")
        else:
            v1s = sorted(part[0])
            v2s = sorted(part[1])
            print(f"structural balance: balanced, partition {v1s} | {v2s}")

    if cfg is not None:
        pair = model.pair()
        print(f"leaders {sorted(cfg.leader_nodes)}; "
              f"smallest perturbed eigenvalue {pair.value:.6g}")
        print("principal eigenvector: "
              + " ".join(f"{v:.4f}" for v in pair.vector))

    if connected:
        decomp = model.blocks
        print(f"blocks ({len(decomp.blocks)}): "
              + "; ".join(str(sorted(b)) for b in decomp.blocks))
        print(f"cut nodes: {sorted(decomp.cut_nodes)}")
        fied = model.pair("fan-fsn")
        try:
            model.simple_pair("fan-fsn")    # the pair is read: refuses only a repeat
        except SpectralError:
            print(f"Fiedler value {fied.value:.6g}, repeated (flagged)")
            return EXIT_OK
        print(f"Fiedler value {fied.value:.6g}, simple")
        try:
            cls = model.classification
        except ClassificationError as exc:
            print(f"Fiedler classification failed: {exc}")
            return EXIT_VERIFY
        if cls.case == "core-block":
            core = sorted(decomp.blocks[cls.core_block])
            print(f"Fiedler classification: core block {core}")
        else:
            print(f"Fiedler classification: core node {cls.core_node}")
    return EXIT_OK


# ---------------------------------------------------------------- select


def cmd_select(args) -> int:
    net, cfg, _ = _load(args.network)
    dnet, report = Model(net, cfg).reduce(args.mode)
    okey = "lambda1" if "lambda1" in report["original"] else "lambda2"
    print(f"mode {args.mode}: kept {len(dnet.w)} of {2*len(net.w)} "
          f"directed choices")
    print(f"original {okey} = "
          + _fmt(report['original'][okey]['value'], EIG_TOL))
    print(f"reduced  {okey} = "
          + _fmt(report['reduced'][okey]['value'], EIG_TOL))
    _print_arcs(dnet)
    unreachable = sorted(int(k) for k, v in report["reachable"].items() if not v)
    print("reachability: " + ("all nodes reachable" if not unreachable
                              else f"unreachable nodes {unreachable}"))
    if args.out:
        Path(args.out).write_text(serialize_arcs(dnet))
        print(f"wrote arcs to {args.out}")
    if args.report:
        Path(args.report).write_text(json_text(report) + "\n")
        print(f"wrote report to {args.report}")
    failed = [k for k, v in report["checks"].items() if not v]
    if failed:
        print(f"FAILED checks: {failed}")
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    net, cfg, x0 = _load(args.network)
    dnet = parse_arc_file(Path(args.reduced).read_bytes()) if args.reduced else None
    if dnet is not None and dnet.n != net.n:
        raise NetworkFileError(
            f"arc file has n={dnet.n}, network has n={net.n}")
    model = Model(net, cfg)
    G, forcing = model.generator(dnet), model.forcing
    tag = model.tag + ("-reduced" if dnet is not None else "")
    x0 = _resolve_x0(net, cfg, x0)
    simcfg = SimulationConfig(dt=args.dt, horizon=args.horizon, method=args.method)
    traj = simulate(G, forcing, x0, simcfg)
    final = traj.states[-1]
    spread = float(np.abs(final - final.mean(axis=0)).max())
    print(f"{tag}: {simcfg.steps} steps of {args.method}, dt={args.dt}, "
          f"horizon={args.horizon}")
    print(f"final state spread around mean: {spread:.3e}")
    Path(args.out).write_text(emit_trajectory(traj))
    print(f"wrote trajectory to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- tempo


def cmd_tempo(args) -> int:
    net, cfg, x0 = _load(args.network)
    pairs = []
    for chunk in args.pairs.split(","):
        ids = re.fullmatch(r"\s*([0-9]+)\s*:\s*([0-9]+)\s*", chunk, re.ASCII)
        if ids is None:
            raise NetworkFileError(
                f"--pairs expects 'i:j,i:j,...', bad chunk {chunk!r}")
        pairs.append((int(ids[1]), int(ids[2])))
    for i, j in pairs:
        if not (1 <= i <= net.n and 1 <= j <= net.n):
            raise NetworkFileError(f"pair {i}:{j} outside 1..{net.n}")
    model = Model(net, cfg)
    G, forcing = model.generator(), model.forcing
    x0 = _resolve_x0(net, cfg, x0)
    simcfg = SimulationConfig(dt=args.dt, horizon=args.horizon)
    vec = model.tempo_vector    # refuses an unbalanced network before simulating
    traj = simulate(G, forcing, x0, simcfg)

    rows = ["t,follower,followed,value\n"]
    stamps = csv_stamps(traj.times[1:]) if args.out else None
    far, unheld = [], []
    print(f"{'pair':>7}  {'sampled g (final)':>18}  {'eigvec ratio':>12}")
    for i, j in pairs:
        series, limit, agrees = sampled_tempo(traj, vec, i, j, args.first_component)
        if args.out:
            rows.extend(csv_rows(stamps, [f"{i},{j}"], series[:, None]))
        final = float(series[-1])
        held = ("none (no sample above the noise floor)" if np.isnan(final)
                else f"{final:.6g}")
        print(f"{i:>3}:{j:<3}  {held:>18}  "
              f"{limit if agrees is None else f'{limit:>12.6g}'}")
        if agrees is False:
            (unheld if np.isnan(final) else far).append(f"{i}:{j}")
    if args.out:
        Path(args.out).write_text("".join(rows))
        print(f"wrote series to {args.out}")
    if unheld:
        print(f"FAILED: no sampled tempo for {', '.join(unheld)}: no sample "
              "difference of the followed agent rose above the noise floor")
    if far:
        print(f"FAILED: sampled tempo differs from eigenvector ratio by more "
              f"than {TEMPO_TOL:g} (lengthen --horizon?)")
    return EXIT_VERIFY if unheld or far else EXIT_OK


# ------------------------------------------------------- distributed-select


def cmd_distributed_select(args) -> int:
    net, cfg, x0 = _load(args.network)
    x0 = _resolve_x0(net, cfg, x0)
    if cfg is None and not args.fan_tree:
        raise GraphError("distributed selection needs leaders; "
                         "use --fan-tree for autonomous trees")
    model = Model(net, None if args.fan_tree else cfg)
    dnet, report = distributed_select(model, x0, delta=args.delta, eps=args.eps)
    reference = model.select()

    rounds = max((e.rounds for e in report.entries), default=0)
    print(f"settled after {rounds} rounds (delta={args.delta}, eps={args.eps})")
    _print_arcs(dnet)
    if args.out:
        Path(args.out).write_text(serialize_arcs(dnet))
        print(f"wrote arcs to {args.out}")
    if dnet.arc_set == reference.arc_set:
        print("matches the centralized construction")
        return EXIT_OK
    extra = sorted(dnet.arc_set - reference.arc_set)
    missing = sorted(reference.arc_set - dnet.arc_set)
    print(f"FAILED: differs from centralized construction "
          f"(extra {extra}, missing {missing})")
    return EXIT_VERIFY


# ---------------------------------------------------------------- compare


def _verification_horizon(rate: float) -> float:
    """Simulated time for the error to decay by ``HORIZON_E_FOLDINGS``
    e-foldings, well below the check tolerance, clamped to ``HORIZON_CLAMP``."""
    least, most = HORIZON_CLAMP
    rate = max(rate, HORIZON_RATE_FLOOR)
    return float(min(most, max(least, HORIZON_E_FOLDINGS / rate)))


def _verification_runs(G, forcing, x0, h: float) -> tuple[Trajectory, Trajectory]:
    """One simulation to 1.5 * h, and its first h as a run of its own; the
    endpoint of the long run is the converged target of the rate fit."""
    long = simulate(G, forcing, x0, SimulationConfig(horizon=1.5 * h))
    k = SimulationConfig(horizon=h).steps + 1
    return Trajectory(long.times[:k], long.states[:k]), long


def _rate_tolerance(G: np.ndarray, eigs: np.ndarray, lam: float, t_fit: float) -> float:
    """Acceptance band for a reduced generator's fitted rate against lam,
    one of its eigenvalues ``eigs``.  The original generator is symmetric,
    never defective, and gets the base tolerance ``RATE_TOL``.

    A defective eigenvalue decays like t^(depth-1) e^(-lam t), which biases
    the fitted slope low by about (depth-1)/t_fit, t_fit the mean time of
    the fitted samples; the band widens by that computable amount on top
    of the base tolerance.
    """
    n = G.shape[0]
    algebraic = int(np.count_nonzero(same_eigenvalue(eigs, lam, G)))
    geometric = n - np.linalg.matrix_rank(G - lam * np.eye(n), tol=RANK_TOL)
    depth = max(1, algebraic - max(int(geometric), 1) + 1)
    return RATE_TOL + (depth - 1) / max(lam * t_fit, RATE_GUARD)


def cmd_compare(args) -> int:
    net, cfg, x0 = _load(args.network)
    model = Model(net, cfg)
    checks: dict[str, bool] = {}
    print(f"=== {net.name or args.network}: n={net.n}, {len(net.w)} edges, "
          f"{'signed ' if model.signed else ''}{'SAN' if cfg else 'FAN'} ===")

    dnet, report = model.reduce()
    okey = "lambda1" if "lambda1" in report["original"] else "lambda2"
    lam_orig = report["original"][okey]["value"]
    lam_red = report["reduced"][okey]["value"]
    print(f"convergence rate ({okey}):  original "
          + _fmt(lam_orig, EIG_TOL) + "  ->  reduced " + _fmt(lam_red, EIG_TOL))
    checks.update(report["checks"])

    vec = model.pair().vector
    print("selection eigenvector: " + " ".join(f"{v:.4f}" for v in vec))
    print(f"retained {len(dnet.w)} arcs:")
    _print_arcs(dnet)

    x0 = _resolve_x0(net, cfg, x0)
    G0, G1, forcing = model.generator(), model.generator(dnet), model.forcing
    h0 = _verification_horizon(lam_orig)
    h1 = _verification_horizon(lam_red)
    traj0, long0 = _verification_runs(G0, forcing, x0, h0)
    traj1, long1 = _verification_runs(G1, forcing, x0, h1)

    if cfg is not None:
        err0, err1 = (float(np.abs(traj.states[-1] - model.limit(G, x0)).max())
                      for traj, G in ((traj0, G0), (traj1, G1)))
        print(f"steady state reached: original err {err0:.2e}, "
              f"reduced err {err1:.2e}  (tol {SIM_TOL:g})")
        checks["original_converged"] = err0 < SIM_TOL
        checks["reduced_converged"] = err1 < SIM_TOL
        if model.signed:
            u0 = cfg.input_vectors()[0]
            final = traj1.states[-1]
            plus = [i for i in range(1, net.n + 1)
                    if np.abs(final[i - 1] - u0).max() < SIM_TOL]
            minus = [i for i in range(1, net.n + 1)
                     if np.abs(final[i - 1] + u0).max() < SIM_TOL]
            print(f"bipartite split: {plus} -> +u | {minus} -> -u "
                  f"(tol {SIM_TOL:g})")
            checks["bipartite_consensus"] = len(plus) + len(minus) == net.n
    else:
        value = model.limit(G1, x0)
        err = float(np.abs(traj1.states[-1] - value).max())
        shown = np.array2string(value, precision=4)
        if value.ndim > 1:
            shown = shown.replace("\n", "")
        print(f"reduced-network consensus: predicted {shown}, simulation err "
              f"{err:.2e} (tol {SIM_TOL:g})")
        checks["consensus_value"] = err < SIM_TOL

    try:
        rate0, _ = fitted_rate(traj0, long0.states[-1])
        rate1, t1 = fitted_rate(traj1, long1.states[-1])
    except SimulationError as exc:
        print(f"rate fit failed: {exc}")
        checks["rate_fit"] = False
    else:
        tol1 = _rate_tolerance(G1, reduced_spectrum(dnet, cfg), lam_red, t1)
        print(f"fitted decay rates: original {rate0:.4g} (predicted {lam_orig:.4g}"
              f", tol {RATE_TOL:.0%}), reduced {rate1:.4g} (predicted {lam_red:.4g}"
              f", tol {tol1:.0%})")
        checks["rate_original"] = abs(rate0 - lam_orig) <= RATE_TOL * lam_orig
        checks["rate_reduced"] = abs(rate1 - lam_red) <= tol1 * lam_red

    indptr, nbr, _ = net.adjacency
    hub = int(np.argmax(np.diff(indptr))) + 1
    print(f"tempo at node {hub} (sampled at t=10 and settled, vs eigenvector "
          f"ratio, tol {TEMPO_TOL:g} on the settled value):")
    k10 = int(np.argmin(np.abs(traj0.times - 10.0)))
    for j in (nbr[indptr[hub - 1]:indptr[hub]] + 1).tolist():
        series, limit, agrees = sampled_tempo(traj0, model.tempo_vector, hub, j)
        if agrees is None:
            print(f"  g_{hub},{j}: {limit}")
            continue
        print(f"  g_{hub},{j}: t=10 {series[k10 - 1]:.4f}, settled {series[-1]:.4f}, "
              f"eigen {limit:.4f}{'' if agrees else '  <-- off'}")
        checks[f"tempo_{hub}_{j}"] = agrees

    failed = [k for k, v in checks.items() if not v]
    if failed:
        print(f"FAILED checks: {failed}")
        return EXIT_VERIFY
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fsnlab",
        description="Eigenvector-guided neighbor selection for consensus "
                    "networks: analysis, reduction, simulation, and "
                    "distributed selection from sampled data.")
    p.add_argument("--version", action="version", version=f"fsnlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="spectral and structural summary")
    a.add_argument("network")

    s = sub.add_parser("select", help="build a reduced network")
    s.add_argument("network")
    s.add_argument("--mode", required=True, choices=MODES)
    s.add_argument("--out", help="write the arc list (JSON) here")
    s.add_argument("--report", help="write the full report (JSON) here")

    m = sub.add_parser("simulate", help="integrate the network dynamics")
    m.add_argument("network")
    m.add_argument("--reduced", help="arc-list JSON of a reduced network")
    m.add_argument("--dt", type=float, default=SimulationConfig.dt)
    m.add_argument("--horizon", type=float, default=SimulationConfig.horizon)
    m.add_argument("--method", choices=["euler", "rk4"],
                   default=SimulationConfig.method)
    m.add_argument("--out", required=True, help="trajectory CSV path")

    t = sub.add_parser("tempo", help="sampled relative-tempo series")
    t.add_argument("network")
    t.add_argument("--pairs", required=True, help="e.g. 7:3,7:6,7:8")
    t.add_argument("--first-component", action="store_true",
                   help="signed first-coordinate ratio instead of norm ratio")
    t.add_argument("--dt", type=float, default=SimulationConfig.dt)
    t.add_argument("--horizon", type=float, default=SimulationConfig.horizon)
    t.add_argument("--out", help="write the series CSV here")

    d = sub.add_parser("distributed-select",
                       help="neighbor selection from sampled data only")
    d.add_argument("network")
    d.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                   help="simulated time between sampling rounds "
                        "(finite, positive)")
    d.add_argument("--eps", type=float, default=DEFAULT_EPS,
                   help="relative accuracy of each tempo estimate: it is "
                        "updated while the neighbor's sample difference "
                        "exceeds unit roundoff times the largest state seen, "
                        "over eps (finite, positive)")
    d.add_argument("--fan-tree", action="store_true",
                   help="autonomous tree variant (signed ratio rule)")
    d.add_argument("--out", help="write the arc list (JSON) here")

    c = sub.add_parser("compare",
                       help="end-to-end before/after report for a network")
    c.add_argument("network")
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; returns its exit code.

    The parser is built on the first call and reused.  The handler is
    looked up by name at each call, so a ``cmd_*`` function rebound in this
    module after that (a wrapper, a test double) is the one that runs.
    """
    args = _parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (NetworkFileError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GraphError, SpectralError, ClassificationError, SimulationError,
            TempoError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
