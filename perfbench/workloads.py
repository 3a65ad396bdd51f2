"""The benchmark's four workloads: input generation, operations, checks.

Each workload has two halves.  ``generate`` runs in the orchestrating
process: it draws the inputs from the workload seed, writes them as
network files, and computes reference answers with ``numpy.linalg.eigh``
(independent of fsnlab's own eigensolver).  ``load`` runs in the measured
worker process: it reads the inputs through fsnlab's loaders and returns a
function that builds one *pass*, the fixed list of operations the timed
window repeats.

An operation is a call into fsnlab through its public entry points
(``cli.main`` or a public library function).  Its check decides one of
three outcomes:

* ``ok``: the program succeeded and its output matches the reference;
* ``failed``: the program reported failure itself (non-zero exit code or
  an exception), which is counted but is not silently wrong data;
* ``wrong``: the program reported success but its output does not match.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from fsnlab import (Edge, LeaderLink, Network, SemiAutonomousConfig,
                    Trajectory, block_cut_tree, classify_fiedler, ffn_san,
                    fsn_fan, fsn_san, fsn_signed_san, laplacian, load_fixture,
                    perturbed_laplacian, reduced_laplacian,
                    signed_laplacian, signed_perturbed_laplacian,
                    signed_reduced_laplacian)
from fsnlab.netfile import (FIXTURE_NAMES, parse_arc_file, parse_network_file,
                            serialize_arcs, serialize_network)

# Reference drawings of the bundled fixtures, (follower, followed) pairs.
G6_FSN = frozenset({(2, 1), (3, 2), (4, 3), (5, 2), (6, 5)})
G8_FSN = frozenset({(2, 3), (5, 6), (1, 6), (6, 2), (6, 7), (6, 3),
                    (7, 3), (7, 8), (3, 8), (3, 4)})
G12_FSN = frozenset({(1, 2), (1, 3), (1, 4), (11, 1), (12, 1), (2, 4), (3, 4),
                     (4, 5), (5, 4), (4, 6), (6, 4), (5, 6), (6, 5),
                     (7, 6), (8, 6), (9, 6), (10, 6)})
T12_FSN = frozenset({(1, 4), (11, 1), (12, 1), (2, 4), (3, 4), (5, 4),
                     (4, 6), (6, 4), (7, 6), (8, 6), (9, 6), (10, 6)})
DRAWINGS = {("g6", "san-fsn"): G6_FSN, ("g8", "san-fsn"): G8_FSN,
            ("g8", "san-ffn"): frozenset((b, a) for a, b in G8_FSN),
            ("g12", "fan-fsn"): G12_FSN, ("t12", "fan-fsn"): T12_FSN}

EIG_RTOL = 1e-8         # eigenvalues against numpy, relative to the matrix scale
VEC_ATOL = 1e-6         # eigenvector entries against numpy
PRINT_RTOL = 2e-5       # values the CLI prints with 6 significant digits
SIM_ATOL = 1e-9         # simulated states against the exact RK4 affine map
TEMPO_TOL = 0.02        # settled sampled tempo against the eigenvector ratio
DT = 0.01               # CLI default step
HORIZON = 60.0          # CLI default horizon for simulate and tempo


class Wrong(Exception):
    """The program reported success but its output is not correct."""


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str]]


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    from fsnlab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return CliResult(rc, out.getvalue(), err.getvalue())


def cli_op(kind: str, label: str, argv: list[str],
           check: Callable[[CliResult], None]) -> Op:
    """One ``cli.main`` call; files it names after an ``--out``/``--report``
    flag are removed after the check, so a later pass cannot pass on them."""
    outputs = [Path(argv[k + 1]) for k, a in enumerate(argv) if a in ("--out", "--report")]

    def verdict(res: CliResult) -> tuple[str, str]:
        try:
            if res.rc != 0:
                tail = (res.err.strip() or res.out.strip()).splitlines()
                return "failed", f"exit {res.rc}: {tail[-1] if tail else ''}"
            check(res)
        except Wrong as exc:
            return "wrong", str(exc)
        except FileNotFoundError as exc:
            return "wrong", f"output missing: {exc.filename}"
        finally:
            for path in outputs:
                path.unlink(missing_ok=True)
        return "ok", ""
    return Op(kind, label, lambda: run_cli(argv), verdict)


def spread_out(ops: list[Op]) -> list[Op]:
    """A pass of independent operations in a fixed shuffled order.

    Built in input order, a pass would run all small inputs first and all
    large ones last, so the median latency would come from one stretch of
    the window and follow the machine's speed in that stretch alone.
    Shuffled, every part of the latency distribution samples the whole
    window, as the throughput does.  The order is the same in every run.
    """
    return [ops[k] for k in np.random.default_rng(0).permutation(len(ops))]


# ------------------------------------------------------------- references


def sign_fixed(v: np.ndarray) -> np.ndarray:
    """Largest-magnitude entry positive (fsnlab's documented convention)."""
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def close(a: float, b: float, rtol: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= rtol * max(scale, abs(b), 1e-300) + 1e-12


def reduced_eigs(G: np.ndarray) -> np.ndarray:
    """Spectrum of a reduced generator from its strongly connected blocks.

    Reachability comes from boolean matrix squaring, so this shares no code
    with fsnlab's component search.
    """
    n = G.shape[0]
    R = (G != 0) | np.eye(n, dtype=bool)
    for _ in range(max(1, math.ceil(math.log2(n))) + 1):
        R = (R.astype(np.int64) @ R.astype(np.int64)) > 0
    comp = R & R.T
    seen = np.zeros(n, dtype=bool)
    values = []
    for i in range(n):
        if seen[i]:
            continue
        idx = np.flatnonzero(comp[i])
        seen[idx] = True
        values.extend(np.linalg.eigvals(G[np.ix_(idx, idx)]).real)
    return np.sort(np.array(values))


def model_refs(net: Network, cfg: Optional[SemiAutonomousConfig]) -> dict:
    """numpy eigen-data of a network, keyed the way the checks use it."""
    base = net.absolute() if net.is_signed else net
    L = laplacian(base)
    w, V = np.linalg.eigh(L)
    spec = np.linalg.eigvalsh(signed_laplacian(net) if net.is_signed else L)
    ref = {"scale": float(np.abs(L).max()), "fiedler": float(w[1]),
           "v2": sign_fixed(V[:, 1]), "spectrum": spec[:min(net.n, 3)].tolist()}
    if cfg is not None:
        M = (signed_perturbed_laplacian(net, cfg) if net.is_signed or cfg.is_signed
             else perturbed_laplacian(net, cfg))
        w1, V1 = np.linalg.eigh(M)
        ref.update(lambda1=float(w1[0]), v1=sign_fixed(V1[:, 0]),
                   scale=max(ref["scale"], float(np.abs(M).max())))
    return ref


def reference_selection(net, cfg, mode: str, ref: dict):
    """Reduced network and (original, reduced) rate from numpy vectors."""
    if mode == "fan-fsn":
        base = net.absolute() if net.is_signed else net
        cls = classify_fiedler(block_cut_tree(base), ref["v2"])
        dnet = fsn_fan(net, ref["v2"], cls)
        reduced = reduced_eigs(reduced_laplacian(dnet))
        return dnet, ref["fiedler"], float(reduced[1])
    select = {"san-fsn": fsn_san, "san-ffn": ffn_san,
              "signed-san-fsn": fsn_signed_san}[mode]
    dnet = select(net, cfg, ref["v1"])
    G = (signed_reduced_laplacian(dnet) if mode == "signed-san-fsn"
         else reduced_laplacian(dnet))
    for link in cfg.leader_links:
        G[link.node - 1, link.node - 1] += 1.0
    return dnet, ref["lambda1"], float(reduced_eigs(G)[0])


def generator(net, cfg, dnet=None) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Dynamics matrix and forcing for the CLI's simulate command."""
    signed = net.is_signed or (cfg is not None and cfg.is_signed)
    if dnet is None:
        if cfg is None:
            G = signed_laplacian(net) if signed else laplacian(net)
        else:
            G = (signed_perturbed_laplacian(net, cfg) if signed
                 else perturbed_laplacian(net, cfg))
    else:
        G = signed_reduced_laplacian(dnet) if signed else reduced_laplacian(dnet)
        if cfg is not None:
            for link in cfg.leader_links:
                G[link.node - 1, link.node - 1] += 1.0
    f = None if cfg is None else cfg.input_matrix(net.n) @ cfg.input_vectors()
    return G, f


def rk4_final(G: np.ndarray, f: Optional[np.ndarray], x0: np.ndarray,
              dt: float, steps: int) -> np.ndarray:
    """Exact fixed-step RK4 for x' = f - Gx, iterated as an affine map."""
    n = G.shape[0]
    A = -dt * G
    A2 = A @ A
    A3 = A2 @ A
    R = np.eye(n) + A + A2 / 2 + A3 / 6 + A3 @ A / 24
    x = x0.copy()
    c = 0.0 if f is None else dt * (np.eye(n) + A / 2 + A2 / 6 + A3 / 24) @ f
    for _ in range(steps):
        x = R @ x + c
    return x


def arcs_of(text: str) -> frozenset[tuple[int, int]]:
    return frozenset((a["follower"], a["followed"]) for a in json.loads(text)["arcs"])


def expect_arcs(got: frozenset, want: frozenset, what: str) -> None:
    if got != want:
        raise Wrong(f"{what}: extra {sorted(got - want)}, missing {sorted(want - got)}")


def expect_close(got: float, want: float, rtol: float, scale: float, what: str) -> None:
    if not close(got, want, rtol, scale):
        raise Wrong(f"{what}: got {got!r}, reference {want!r}")


def save_refs(path: Path, refs: dict) -> None:
    def plain(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v
    path.write_text(json.dumps(plain(refs)))


# ---------------------------------------------------------- CLI op checks


def check_analyze(ref: dict) -> Callable[[CliResult], None]:
    scale = ref["scale"]

    def check(res: CliResult) -> None:
        m = re.search(r"spectrum \(smallest \d+\): ([^\n]*?)  \(", res.out)
        if not m:
            raise Wrong("analyze printed no spectrum")
        got = [float(v) for v in m.group(1).split(",")]
        for g, w in zip(got, ref["spectrum"], strict=True):
            expect_close(g, w, PRINT_RTOL, scale, "analyze spectrum")
        if "lambda1" in ref:
            m = re.search(r"smallest perturbed eigenvalue (\S+)", res.out)
            if not m:
                raise Wrong("analyze printed no perturbed eigenvalue")
            expect_close(float(m.group(1)), ref["lambda1"], PRINT_RTOL, 0.0,
                         "perturbed eigenvalue")
        m = re.search(r"Fiedler value (\S+),", res.out)
        if not m:
            raise Wrong("analyze printed no Fiedler value")
        expect_close(float(m.group(1)), ref["fiedler"], PRINT_RTOL, 0.0,
                     "Fiedler value")
    return check


def check_select(out: Path, report: Path, sel: dict, ref: dict,
                 drawing: Optional[frozenset]) -> Callable[[CliResult], None]:
    want = frozenset(map(tuple, sel["arcs"]))
    vec = np.array(ref["v2"] if sel["mode"] == "fan-fsn" else ref["v1"])

    def check(res: CliResult) -> None:
        got = arcs_of(out.read_text())
        expect_arcs(got, want, "arcs vs numpy reference")
        if drawing is not None:
            expect_arcs(got, drawing, "arcs vs reference drawing")
        rep = json.loads(report.read_text())
        failed = [k for k, v in rep["checks"].items() if not v]
        if failed:
            raise Wrong(f"report checks failed: {failed}")
        key = next(iter(rep["original"]))
        expect_close(rep["original"][key]["value"], sel["original"], EIG_RTOL,
                     ref["scale"], "original eigenvalue")
        expect_close(rep["reduced"][key]["value"], sel["reduced"], 1e-6,
                     ref["scale"], "reduced eigenvalue")
        # Up to sign: the sign convention is ambiguous when two entries tie
        # for the largest magnitude.
        entries = np.array(rep["eigenvector"]["entries"])
        if min(np.abs(entries - vec).max(), np.abs(entries + vec).max()) > VEC_ATOL:
            raise Wrong("eigenvector differs from numpy reference")
    return check


def read_csv_ends(text: str, rows: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Values of the first and last ``rows`` data rows, and the line count."""
    head = text.split("\n", rows + 1)
    if head[0] != "t,agent,dim,value":
        raise Wrong("trajectory CSV has the wrong header")
    tail = text.rstrip("\n").rsplit("\n", rows)
    first = np.array([float(r.rsplit(",", 1)[1]) for r in head[1:rows + 1]])
    last = np.array([float(r.rsplit(",", 1)[1]) for r in tail[-rows:]])
    return first, last, text.count("\n")


def check_simulate(out: Path, G: np.ndarray, f: Optional[np.ndarray],
                   d: int) -> Callable[[CliResult], None]:
    n = G.shape[0]
    steps = int(round(HORIZON / DT))

    def check(res: CliResult) -> None:
        first, last, lines = read_csv_ends(out.read_text(), n * d)
        if lines != 1 + (steps + 1) * n * d:
            raise Wrong(f"trajectory CSV has {lines} lines")
        x0 = first.reshape(n, d)
        want = rk4_final(G, f, x0, DT, steps)
        err = float(np.abs(last.reshape(n, d) - want).max())
        if err > SIM_ATOL * max(1.0, float(np.abs(want).max())):
            raise Wrong(f"final state differs from exact RK4 by {err:.3e}")
    return check


def check_tempo(out: Path, pairs: list[tuple[int, int]],
                want: list[float]) -> Callable[[CliResult], None]:
    steps = int(round(HORIZON / DT))

    def check(res: CliResult) -> None:
        rows = out.read_text().splitlines()
        if rows[0] != "t,follower,followed,value" or len(rows) != 1 + steps * len(pairs):
            raise Wrong("tempo CSV has the wrong shape")
        for p, ((i, j), ref) in enumerate(zip(pairs, want)):
            block = rows[1 + p * steps:1 + (p + 1) * steps]
            values = [float(r.rsplit(",", 1)[1]) for r in block[-50:]]
            finite = [v for v in values if not math.isnan(v)]
            if not finite or abs(finite[-1] - ref) > TEMPO_TOL * max(1.0, ref):
                raise Wrong(f"tempo {i}:{j} settled at {finite[-1:]} vs {ref:.6g}")
    return check


def check_compare(ref: dict) -> Callable[[CliResult], None]:
    key = "lambda1" if "lambda1" in ref else "fiedler"

    def check(res: CliResult) -> None:
        if "all checks passed" not in res.out:
            raise Wrong("compare exited 0 without 'all checks passed'")
        m = re.search(r"convergence rate \(\w+\):  original (\S+)", res.out)
        if not m:
            raise Wrong("compare printed no original rate")
        expect_close(float(m.group(1)), ref[key], PRINT_RTOL, 0.0, "original rate")
    return check


def check_arcs_file(out: Path, want: frozenset,
                    drawing: Optional[frozenset] = None) -> Callable[[CliResult], None]:
    def check(res: CliResult) -> None:
        got = arcs_of(out.read_text())
        expect_arcs(got, want, "distributed arcs vs numpy reference")
        if drawing is not None:
            expect_arcs(got, drawing, "distributed arcs vs reference drawing")
    return check


# ------------------------------------------------------------ fixtures-cli


def modes_for(net: Network, cfg) -> list[str]:
    """Selection modes the README documents as valid for this input."""
    if cfg is None:
        return ["fan-fsn"]
    if net.is_signed or cfg.is_signed:
        return ["signed-san-fsn", "fan-fsn"]
    return ["san-fsn", "san-ffn", "signed-san-fsn", "fan-fsn"]


def default_mode(net: Network, cfg) -> str:
    return modes_for(net, cfg)[0]


def hub_pairs(net: Network) -> list[tuple[int, int]]:
    hub = max(range(1, net.n + 1), key=lambda i: (len(net.neighbors[i]), -i))
    return [(hub, j) for j in net.neighbors[hub]]


TEMPO_PAIRS = {"g8": [(7, 3), (7, 6), (7, 8)]}   # the README's example


def generate_fixtures(seed: int, work: Path) -> dict:
    """References for the bundled fixtures.

    The fixtures themselves are the inputs; the seed reaches the program as
    FSNLAB_SEED, which draws the initial state of every fixture without one.
    """
    refs = {}
    for name in FIXTURE_NAMES:
        net, cfg, _ = load_fixture(name)
        ref = model_refs(net, cfg)
        ref["selections"] = {}
        for mode in modes_for(net, cfg):
            dnet, orig, red = reference_selection(net, cfg, mode, ref)
            ref["selections"][mode] = {"mode": mode, "arcs": sorted(dnet.arc_set),
                                       "original": orig, "reduced": red}
            if mode == default_mode(net, cfg):
                (work / f"{name}.arcs.json").write_text(serialize_arcs(dnet))
        pairs = TEMPO_PAIRS.get(name) or hub_pairs(net)
        vec = ref["v1"] if cfg is not None else ref["v2"]
        ref["tempo"] = {"pairs": pairs,
                        "ratios": [abs(vec[i - 1]) / abs(vec[j - 1]) for i, j in pairs]}
        refs[name] = ref
    save_refs(work / "refs.json", refs)
    return {"fixtures": list(FIXTURE_NAMES), "files": []}


def load_fixtures(work: Path) -> Callable[[], list[Op]]:
    refs = json.loads((work / "refs.json").read_text())
    out = work / "ops"
    out.mkdir(exist_ok=True)
    ops: list[Op] = []
    for name in FIXTURE_NAMES:
        net, cfg, x0 = load_fixture(name)
        ref = refs[name]
        d = x0.shape[1] if x0 is not None else (cfg.d if cfg is not None else 1)
        ops.append(cli_op("analyze", f"analyze {name}", ["analyze", name],
                          check_analyze(ref)))
        for mode, sel in ref["selections"].items():
            arcs, report = out / f"{name}.{mode}.json", out / f"{name}.{mode}.report.json"
            ops.append(cli_op("select", f"select {name} {mode}",
                              ["select", name, "--mode", mode, "--out", str(arcs),
                               "--report", str(report)],
                              check_select(arcs, report, sel, ref,
                                           DRAWINGS.get((name, mode)))))
        reduced = parse_arc_file((work / f"{name}.arcs.json").read_text())
        for dnet, tag in ((None, "original"), (reduced, "reduced")):
            csv = out / f"{name}.{tag}.csv"
            argv = ["simulate", name, "--out", str(csv)]
            if dnet is not None:
                argv[2:2] = ["--reduced", str(work / f"{name}.arcs.json")]
            G, f = generator(net, cfg, dnet)
            ops.append(cli_op("simulate", f"simulate {name} {tag}", argv,
                              check_simulate(csv, G, f, d)))
        pairs = [tuple(p) for p in ref["tempo"]["pairs"]]
        csv = out / f"{name}.tempo.csv"
        ops.append(cli_op("tempo", f"tempo {name}",
                          ["tempo", name, "--pairs",
                           ",".join(f"{i}:{j}" for i, j in pairs), "--out", str(csv)],
                          check_tempo(csv, pairs, ref["tempo"]["ratios"])))
        ops.append(cli_op("compare", f"compare {name}", ["compare", name],
                          check_compare(ref)))
    for name, flags, drawing in (("g8", [], G8_FSN),
                                 ("t12", ["--fan-tree"], T12_FSN)):
        arcs = out / f"{name}.distributed.json"
        mode = "fan-fsn" if flags else "san-fsn"
        want = frozenset(map(tuple, refs[name]["selections"][mode]["arcs"]))
        ops.append(cli_op("distributed", " ".join(["distributed-select", name, *flags]),
                          ["distributed-select", name, *flags, "--out", str(arcs)],
                          check_arcs_file(arcs, want, drawing)))
    ops = spread_out(ops)
    return lambda: ops


# ------------------------------------------------------------ generators


def random_tree(rng, n: int, weight=None) -> list[Edge]:
    """Uniform-attachment tree on nodes 1..n."""
    return [Edge(int(rng.integers(1, k)), k, 1.0 if weight is None else weight(rng))
            for k in range(2, n + 1)]


def add_chords(rng, n: int, edges: list[Edge], count: int, weight=None,
               exact: bool = False) -> list[Edge]:
    """Add ``count`` chord draws (exactly ``count`` new chords if ``exact``)."""
    present = {e.key() for e in edges}
    edges = list(edges)
    added = draws = 0
    while (added if exact else draws) < count:
        draws += 1
        a, b = (int(v) for v in rng.integers(1, n + 1, size=2))
        key = (min(a, b), max(a, b))
        if a == b or key in present:
            continue
        present.add(key)
        added += 1
        edges.append(Edge(*key, 1.0 if weight is None else weight(rng)))
    return edges


def leader_cfg(rng, n: int, k: int, d: int = 1) -> SemiAutonomousConfig:
    """k distinct leaders with positive links, one input each."""
    nodes = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=k, replace=False))
    links = tuple(LeaderLink(v, idx + 1, 1) for idx, v in enumerate(nodes))
    inputs = tuple(tuple(float(x) for x in rng.random(d)) for _ in nodes)
    return SemiAutonomousConfig(len(nodes), links, inputs)


def gauge(rng, n: int, edges: list[Edge]) -> tuple[np.ndarray, list[Edge]]:
    """Random two-sided gauge (node 1 on side 0) and the balanced signing."""
    sides = rng.integers(0, 2, size=n + 1)
    sides[1] = 0
    return sides, [Edge(e.i, e.j, e.w if sides[e.i] == sides[e.j] else -e.w)
                   for e in edges]


def edge_margin(v: np.ndarray, edges, signed_rule: bool = False) -> float:
    """Smallest distance of an edge's entry ratios from the selection thresholds."""
    i = np.array([e.i - 1 for e in edges])
    j = np.array([e.j - 1 for e in edges])
    r = v[i] / v[j]
    if signed_rule:
        return float(np.min(np.concatenate([np.abs(np.abs(r) - 1), np.abs(r),
                                            np.abs(1 / r)])))
    return float(np.min(np.minimum(np.abs(r - 1), np.abs(1 / r - 1))))


def uniform_weight(rng) -> float:
    return float(rng.uniform(0.5, 2.0))


# ------------------------------------------------------------ select-scale

# Networks per size in one pass.  Eigen-solves dominate and grow as n^3, so
# the smaller sizes get more networks to keep each size's share of the pass
# comparable.
SCALE_COUNTS = {32: 4, 64: 2, 128: 1}
SCALE_MODES = ("san-fsn", "fan-fsn", "signed-san-fsn")


def generate_select_scale(seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, 1])
    refs, files = {}, []
    for n, count in SCALE_COUNTS.items():
        for k in range(count):
            edges = add_chords(rng, n, random_tree(rng, n, uniform_weight), n,
                               uniform_weight)
            sides, signed_edges = gauge(rng, n, edges)
            cfg = leader_cfg(rng, n, max(2, n // 16))
            scfg = SemiAutonomousConfig(cfg.m, tuple(
                LeaderLink(l.node, l.input_index, 1 if sides[l.node] == 0 else -1)
                for l in cfg.leader_links), cfg.inputs)
            stem = f"scale-n{n}-{k}"
            for tag, net, c in (("", Network(n, tuple(edges), name=stem), cfg),
                                (".signed", Network(n, tuple(signed_edges),
                                                    name=stem + "-signed"), scfg)):
                path = work / f"{stem}{tag}.json"
                path.write_text(serialize_network(net, c))
                files.append(str(path))
                ref = model_refs(net, c)
                ref["selections"] = {}
                for mode in (("signed-san-fsn",) if tag else ("san-fsn", "fan-fsn")):
                    dnet, orig, red = reference_selection(net, c, mode, ref)
                    ref["selections"][mode] = {"mode": mode, "arcs": sorted(dnet.arc_set),
                                               "original": orig, "reduced": red}
                refs[stem + tag] = ref
    save_refs(work / "refs.json", refs)
    return {"fixtures": [], "files": files}


def load_select_scale(work: Path) -> Callable[[], list[Op]]:
    refs = json.loads((work / "refs.json").read_text())
    out = work / "ops"
    out.mkdir(exist_ok=True)
    ops: list[Op] = []
    for n, count in SCALE_COUNTS.items():
        for k in range(count):
            stem = f"scale-n{n}-{k}"
            parse_network_file((work / f"{stem}.json").read_text())
            parse_network_file((work / f"{stem}.signed.json").read_text())
            for mode in SCALE_MODES:
                key = stem + (".signed" if mode.startswith("signed") else "")
                arcs, report = out / f"{stem}.{mode}.json", out / f"{stem}.{mode}.report.json"
                ops.append(cli_op("select", f"select {stem} {mode}",
                                  ["select", str(work / f"{key}.json"), "--mode", mode,
                                   "--out", str(arcs), "--report", str(report)],
                                  check_select(arcs, report, refs[key]["selections"][mode],
                                               refs[key], None)))
            ops.append(cli_op("analyze", f"analyze {stem}",
                              ["analyze", str(work / f"{stem}.json")],
                              check_analyze(refs[stem])))
    ops = spread_out(ops)
    return lambda: ops


# ------------------------------------------------------ distributed-random

# Networks per size in one pass: (leader networks per d, trees).  Small
# networks settle in tens of milliseconds and large trees take up to a
# second; the weight on small sizes gives a run about 100 operations for its
# median and tail, while n = 20 and 24 stay in because that is where the
# distributed rule is known to settle early.
DIST_COUNTS = {8: (16, 8), 12: (12, 5), 16: (6, 3), 20: (3, 2), 24: (3, 2)}
DELTA, EPS = 0.01, 1e-4   # the CLI defaults
DIST_STREAM = 0


def separable_leader_instance(rng, n: int, d: int):
    """Leader network from the separability domain of the tempo tests.

    Every edge's entry ratio clears 1 by at least max(0.05, 8 eps/(delta gap)),
    the accuracy the default termination rule can resolve.
    """
    while True:
        edges = add_chords(rng, n, random_tree(rng, n), int(rng.integers(0, n)))
        net = Network(n, tuple(edges))
        cfg = leader_cfg(rng, n, int(rng.integers(1, n + 1)), d)
        w, V = np.linalg.eigh(perturbed_laplacian(net, cfg))
        accuracy = EPS / (DELTA * max(w[1] - w[0], 1e-6))
        v1 = sign_fixed(V[:, 0])
        if edge_margin(v1, edges) >= max(0.05, 8.0 * accuracy):
            return net, cfg, v1


def separable_tree(rng, n: int):
    """Tree with a simple Fiedler value, no zero-zero edge, ratios 0.05 clear."""
    while True:
        edges = random_tree(rng, n)
        net = Network(n, tuple(edges))
        w, V = np.linalg.eigh(laplacian(net))
        if w[2] - w[1] <= 1e-8 * max(1.0, float(np.abs(w).max())):
            continue
        v2 = sign_fixed(V[:, 1])
        zero = np.abs(v2) <= 1e-8 * float(np.abs(v2).max())
        if any(zero[e.i - 1] and zero[e.j - 1] for e in edges):
            continue
        live = [e for e in edges if not zero[e.i - 1] and not zero[e.j - 1]]
        if live and edge_margin(v2, live, signed_rule=True) < 0.05:
            continue
        return net, v2


def generate_distributed(seed: int, work: Path) -> dict:
    """One fixed draw of networks and initial states; ``seed`` is unused.

    A network's settle round is so sensitive to its initial state that
    shifting every x0 entry by at most 0.01 per seed moved the run's
    throughput by 7% and its tail latency by 18% across five seeds (with 194
    networks per run); a draw per seed would swamp any bound a regression
    check can use.
    """
    rng = np.random.default_rng(DIST_STREAM)
    refs, files = {}, []
    for n, (leaders, trees) in DIST_COUNTS.items():
        for kind, count in (("leader-d1", leaders), ("leader-d3", leaders),
                            ("tree", trees)):
            for k in range(count):
                stem = f"dist-{kind}-n{n}-{k}"
                if kind == "tree":
                    net, v2 = separable_tree(rng, n)
                    cls = classify_fiedler(block_cut_tree(net), v2)
                    want, cfg, d = fsn_fan(net, v2, cls), None, 1
                else:
                    d = 3 if kind == "leader-d3" else 1
                    net, cfg, v1 = separable_leader_instance(rng, n, d)
                    want = fsn_san(net, cfg, v1)
                x0 = rng.random((n, d))
                path = work / f"{stem}.json"
                path.write_text(serialize_network(Network(n, net.edges, name=stem), cfg, x0))
                files.append(str(path))
                refs[stem] = {"kind": kind, "arcs": sorted(want.arc_set)}
    save_refs(work / "refs.json", refs)
    return {"fixtures": [], "files": files}


def load_distributed(work: Path) -> Callable[[], list[Op]]:
    refs = json.loads((work / "refs.json").read_text())
    out = work / "ops"
    out.mkdir(exist_ok=True)
    ops: list[Op] = []
    for stem, ref in refs.items():
        path = work / f"{stem}.json"
        parse_network_file(path.read_text())
        arcs = out / f"{stem}.arcs.json"
        flags = ["--fan-tree"] if ref["kind"] == "tree" else []
        ops.append(cli_op("distributed", f"distributed-select {stem}",
                          ["distributed-select", str(path), *flags, "--out", str(arcs)],
                          check_arcs_file(arcs, frozenset(map(tuple, ref["arcs"])))))
    ops = spread_out(ops)
    return lambda: ops


# ------------------------------------------------------------- graph-scale

GRAPH_N = 2000
GRAPH_CHORDS = 8000
GRAPH_LEADERS = 20
TRAJ_SAMPLES = 20


def generate_graph_scale(seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, 3])
    n = GRAPH_N
    tree = random_tree(rng, n, uniform_weight)
    files, refs = [], {}
    arrays = {"times": np.arange(TRAJ_SAMPLES) * 0.5,
              "states": rng.random((TRAJ_SAMPLES, n, 1))}
    for name, edges in (("tree", tree),
                        ("chord", add_chords(rng, n, tree, GRAPH_CHORDS,
                                             uniform_weight, exact=True))):
        net = Network(n, tuple(edges), name=name)
        cfg = leader_cfg(rng, n, GRAPH_LEADERS)
        sides, signed = gauge(rng, n, edges)
        for tag, doc in (("", serialize_network(net, cfg)),
                         (".signed", serialize_network(Network(n, tuple(signed)), None))):
            path = work / f"graph-{name}{tag}.json"
            path.write_text(doc)
            files.append(str(path))
        L = laplacian(net)
        v2 = sign_fixed(np.linalg.eigh(L)[1][:, 1])
        del L
        v1 = sign_fixed(np.linalg.eigh(perturbed_laplacian(net, cfg))[1][:, 0])
        cls = classify_fiedler(block_cut_tree(net), v2)
        fan = fsn_fan(net, v2, cls)
        arrays[f"{name}.v1"], arrays[f"{name}.v2"] = v1, v2
        refs[name] = {"case": cls.case, "core": sorted(cls.core_nodes),
                      "fan": sorted(fan.arc_set),
                      "side2": [i for i in range(1, n + 1) if sides[i] == 1]}
    np.savez(work / "graph.npz", **arrays)
    save_refs(work / "refs.json", refs)
    return {"fixtures": [], "files": files}


def san_rule(net: Network, v1: np.ndarray) -> frozenset:
    """Slower-neighbor arcs straight from the numpy vector."""
    arcs = set()
    for e in net.edges:
        for a, b in ((e.i, e.j), (e.j, e.i)):
            r = v1[a - 1] / v1[b - 1]
            if r > 1.0 and abs(r - 1.0) >= 1e-10:
                arcs.add((a, b))
    return frozenset(arcs)


def check_parsed(path: Path):
    """Parsed network must equal the document read with the json module."""
    doc = json.loads(path.read_text())
    want = [(e["i"], e["j"], float(e.get("w", 1.0))) for e in doc["edges"]]
    leaders = sorted(l["node"] for l in doc.get("leaders", []))

    def check(res) -> None:
        net, cfg, _ = res
        if [(e.i, e.j, e.w) for e in net.edges] != want:
            raise Wrong(f"{path.name}: parsed edges differ from the document")
        if sorted(cfg.leader_nodes if cfg else []) != leaders:
            raise Wrong(f"{path.name}: parsed leaders differ from the document")
    return check


def lib_op(kind: str, label: str, call: Callable[[], object],
           check: Callable[[object], None]) -> Op:
    """A direct library call; exceptions are the program's own failure reports."""
    def verdict(res) -> tuple[str, str]:
        try:
            check(res)
        except Wrong as exc:
            return "wrong", str(exc)
        return "ok", ""
    return Op(kind, label, call, verdict)


def load_graph_scale(work: Path) -> Callable[[], list[Op]]:
    # Calls go through the package namespace at call time, where the
    # tracer's wrappers are installed.
    import fsnlab as lib
    refs = json.loads((work / "refs.json").read_text())
    arrays = np.load(work / "graph.npz")
    traj = Trajectory(arrays["times"], arrays["states"])
    graphs = {}
    for name in refs:
        paths = (work / f"graph-{name}.json", work / f"graph-{name}.signed.json")
        for p in paths:
            parse_network_file(p.read_text())
        graphs[name] = (paths, check_parsed(paths[0]), check_parsed(paths[1]),
                        arrays[f"{name}.v1"], arrays[f"{name}.v2"])

    def expect(cond: bool, what: str) -> None:
        if not cond:
            raise Wrong(what)

    def check_blocks(res, st) -> None:
        net = st["parse"][0]
        member: dict[int, list[int]] = {}
        for b, nodes in enumerate(res.blocks):
            for v in nodes:
                member.setdefault(v, []).append(b)
        for e in net.edges:
            expect(len(set(member[e.i]) & set(member[e.j])) == 1,
                   f"edge ({e.i},{e.j}) is not in exactly one block")
        expect(res.cut_nodes == frozenset(v for v, bs in member.items() if len(bs) > 1),
               "cut nodes are not the nodes shared by blocks")
        if len(net.edges) == net.n - 1:
            expect(len(res.blocks) == net.n - 1, "a tree's blocks are not its edges")

    def check_reduced(res, st) -> None:
        net, cfg = st["parse"][:2]
        diag = np.zeros(net.n)
        for a in st["fsn_san"].arcs:
            diag[a.follower - 1] += a.w
        for link in cfg.leader_links:
            diag[link.node - 1] += 1.0
        expect(np.allclose(res, np.sort(diag), rtol=1e-12, atol=0),
               "reduced spectrum differs from the acyclic generator's diagonal")

    def make_pass() -> list[Op]:
        ops: list[Op] = []
        for name, (paths, parsed_ok, signed_ok, v1, v2) in graphs.items():
            st: dict = {}
            ref = refs[name]

            def step(kind, call, check, st=st, name=name):
                def run():
                    st[kind] = call(st)
                    return st[kind]
                ops.append(lib_op(kind, f"{kind} {name}", run, lambda res: check(res, st)))

            step("parse", lambda st, p=paths[0]: lib.parse_network_file(p.read_text()),
                 lambda res, st, ok=parsed_ok: ok(res))
            step("block_cut_tree", lambda st: lib.block_cut_tree(st["parse"][0]), check_blocks)
            step("classify_fiedler",
                 lambda st, v2=v2: lib.classify_fiedler(st["block_cut_tree"], v2),
                 lambda res, st, ref=ref: expect(
                     res.case == ref["case"] and sorted(res.core_nodes) == ref["core"],
                     "classification differs from the reference"))
            step("fsn_fan",
                 lambda st, v2=v2: lib.fsn_fan(st["parse"][0], v2, st["classify_fiedler"]),
                 lambda res, st, ref=ref: expect_arcs(
                     res.arc_set, frozenset(map(tuple, ref["fan"])), "fsn_fan arcs"))
            step("reachable_from",
                 lambda st: lib.reachable_from(st["fsn_fan"], st["classify_fiedler"].core_nodes),
                 lambda res, st: expect(all(res.values()), "FAN reduction lost reachability"))
            step("fsn_san", lambda st, v1=v1: lib.fsn_san(*st["parse"][:2], v1),
                 lambda res, st, v1=v1: expect_arcs(
                     res.arc_set, san_rule(st["parse"][0], v1), "fsn_san arcs"))
            step("reachable_from_inputs",
                 lambda st: lib.reachable_from_inputs(st["fsn_san"], st["parse"][1]),
                 lambda res, st: expect(all(res.values()), "SAN reduction lost reachability"))
            step("reduced_spectrum",
                 lambda st: lib.reduced_spectrum(st["fsn_san"], st["parse"][1]),
                 check_reduced)
            step("arc_round_trip",
                 lambda st: lib.parse_arc_file(lib.serialize_arcs(st["fsn_san"])),
                 lambda res, st: expect(res.arcs == st["fsn_san"].arcs
                                        and res.n == st["fsn_san"].n,
                                        "arc list round trip is not exact"))
            step("parse_signed", lambda st, p=paths[1]: lib.parse_network_file(p.read_text()),
                 lambda res, st, ok=signed_ok: ok(res))
            step("structural_balance_partition",
                 lambda st: lib.structural_balance_partition(st["parse_signed"][0]),
                 lambda res, st, ref=ref: expect(
                     res is not None and sorted(res[1]) == ref["side2"],
                     "balance partition differs from the gauge"))
        ops.append(lib_op("trajectory_round_trip", "trajectory_round_trip",
                          lambda: lib.parse_trajectory(lib.emit_trajectory(traj)),
                          lambda res: expect(
                              np.array_equal(res.times, traj.times)
                              and np.array_equal(res.states, traj.states),
                              "trajectory CSV round trip is not bit-exact")))
        return ops
    return make_pass


# name: (generate, load, seconds one pass took at the baseline on a 2-core
# Xeon KVM guest with Python 3.11 and numpy 2.4).  A run makes
# round(--seconds / that) whole passes, at least one, so a parent and a
# change run the same operations and their medians and tails compare the
# same operations; a pass count chosen by the clock would change with
# machine load.
WORKLOADS = {
    "fixtures-cli": (generate_fixtures, load_fixtures, 19.0),
    "select-scale": (generate_select_scale, load_select_scale, 26.0),
    "distributed-random": (generate_distributed, load_distributed, 18.0),
    "graph-scale": (generate_graph_scale, load_graph_scale, 1.6),
}
