"""Record what the command-line front end prints and writes: the committed
record ``tests/records.json`` pins every command's output, and tier-1
(``tests/test_record_outputs.py``) runs the commands again and compares.

    python tools/record_outputs.py SRC OUT.json

SRC is a directory holding the ``fsnlab`` package (``src`` of a checkout);
``fsnlab.cli.main`` is imported from it.  The commands run in-process on
the five bundled fixtures at FSNLAB_SEED 7 and 11, 13 per fixture and
seed:

- ``analyze`` and ``compare``;
- ``select`` in every mode, with ``--out`` and ``--report``;
- ``simulate`` with rk4, and with ``--method euler --dt 0.001 --horizon 2``;
- ``tempo`` on the hub pairs (the highest-degree node, the lowest id among
  ties, with each neighbor) with ``--out``, and again with
  ``--first-component``;
- ``distributed-select`` with ``--out``, with ``--fan-tree`` and with
  ``--eps 1e-6``.

Then, at the first seed, the 19 decision runs (``DECISIONS``): ``select``
in every mode a fixture accepts, ``tempo`` on perfbench's pairs and two
``distributed-select`` runs, none with ``--out``, whose stdout pins each
thresholded decision.

Then, at both seeds, five commands whose sampled checks fail and exit 1
(``failing_checks``): ``compare`` and ``tempo`` on the hub pairs, with
and without ``--first-component``, of a weighted K4 whose tempo has not
settled; ``distributed-select`` of a leader network with a near-tie; and
``tempo`` of a path that starts at consensus, where no sample rises above
the noise floor and one limit diverges.

Then, at the first seed, the refusals (``refusals``): ``analyze`` of each
of a fixed set of bad network documents (a self-loop, a duplicate edge, an
id outside 1..n, a zero weight, a node whose weights overflow, a fractional
id, a bool id, a bool weight, leader records without an input, with sign
2, on node 0 and n+1, and twice on one node, an ``x0`` holding NaN and an
input of -Infinity), and ``simulate g6 --reduced`` of an arc list with a
self-arc; then the refusals the commands document:

- a repeated selection value: ``select --mode fan-fsn`` of the 5-cycle,
  ``tempo`` of the 5-node star and ``distributed-select --fan-tree`` of
  the 4-node star;
- ``select --mode fan-fsn`` of a disconnected network and of an
  unbalanced signed triangle, and ``select --mode san-fsn`` of a leader
  network with an isolated node;
- ``distributed-select --fan-tree`` of the path at consensus below, where
  no arc gets an estimate above the noise floor;
- ``tempo g8`` with ``--pairs`` 7-3, 7:99 and 1_0:1;
- ``analyze nosuch``, ``simulate g6 --reduced`` of an arc list with n = 3
  and ``simulate g6 --method euler --dt 1``.

OUT.json holds the ``fingerprint`` of the interpreter that ran the
commands (the Python, numpy and orjson versions and OpenBLAS's
configuration string, which names the core its kernels run on) and the
``records``: per command, its arguments, seed, exit code, stdout, stderr
and the sha256 of every file in its directory after it ran (its input
documents too).  Each command runs in a fresh temporary directory, which
the record spells ``$TMP``.  A change meant to change an output re-records
the committed file:

    python tools/record_outputs.py src tests/records.json

and the diff of that file shows what moved.  The record holds only for
its fingerprint: under another one the tier-1 check fails and names the
field, and the file is re-recorded there from a commit whose outputs are
trusted.
"""

from __future__ import annotations

import contextlib
import ctypes
import difflib
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np
import orjson

FIXTURES = ("g6", "g8", "g8-signed", "g12", "t12")
SEEDS = ("7", "11")
MODES = ("san-fsn", "san-ffn", "fan-fsn", "signed-san-fsn")


def hub_pairs(net) -> str:
    """The --pairs text of the highest-degree node with each neighbor."""
    hub = max(range(1, net.n + 1), key=lambda i: (len(net.neighbors[i]), -i))
    return ",".join(f"{hub}:{j}" for j in net.neighbors[hub])


def commands(name: str, pairs: str) -> list[list[str]]:
    """The argument lists recorded for one fixture; ``$TMP`` stands for the
    command's temporary directory."""
    return [
        ["analyze", name],
        ["compare", name],
        *[["select", name, "--mode", mode, "--out", "$TMP/arcs.json",
           "--report", "$TMP/report.json"] for mode in MODES],
        ["simulate", name, "--out", "$TMP/traj.csv"],
        ["simulate", name, "--method", "euler", "--dt", "0.001",
         "--horizon", "2", "--out", "$TMP/traj.csv"],
        ["tempo", name, "--pairs", pairs, "--out", "$TMP/series.csv"],
        ["tempo", name, "--pairs", pairs, "--first-component",
         "--out", "$TMP/series.csv"],
        ["distributed-select", name, "--out", "$TMP/arcs.json"],
        ["distributed-select", name, "--fan-tree", "--out", "$TMP/arcs.json"],
        ["distributed-select", name, "--eps", "1e-6", "--out", "$TMP/arcs.json"],
    ]


# The runs whose stdout pins the thresholded decisions of select, tempo and
# distributed-select at the first seed, with no --out: every mode a fixture
# accepts, and the tempo pairs and distributed runs of perfbench's
# fixtures-cli.
ALL_MODES = ("san-fsn", "san-ffn", "signed-san-fsn", "fan-fsn")
DECISIONS = [
    *[["select", name, "--mode", mode]
      for name, modes in (("g6", ALL_MODES), ("g8", ALL_MODES),
                          ("g8-signed", ALL_MODES[2:]), ("g12", ALL_MODES[3:]),
                          ("t12", ALL_MODES[3:]))
      for mode in modes],
    *[["tempo", name, "--pairs", pairs]
      for name, pairs in (("g6", "2:1,2:3,2:5"), ("g8", "7:3,7:6,7:8"),
                          ("g8-signed", "3:2,3:4,3:6,3:7,3:8"),
                          ("g12", "6:4,6:5,6:7,6:8,6:9,6:10"),
                          ("t12", "4:1,4:2,4:3,4:5,4:6"))],
    ["distributed-select", "g8"],
    ["distributed-select", "t12", "--fan-tree"],
]


# A path at consensus: no sample difference rises above the noise floor.
CONSENSUS = {"n": 3, "edges": [{"i": 1, "j": 2}, {"i": 2, "j": 3}],
             "x0": [0.5, 0.5, 0.5]}


def _network(edges: list[tuple], leaders: Optional[list[dict]] = None,
             n: int = 3, **rest) -> str:
    """A network document of n nodes (3 by default), (i, j[, w]) edges,
    leader records and the other fields in ``rest``."""
    doc = {"n": n, "edges": [dict(zip("ijw", e)) for e in edges], **rest}
    if leaders:
        doc["leaders"] = leaders
    return json.dumps(doc)


def refusals() -> list[tuple[list[str], dict[str, str]]]:
    """The refused commands: each one's arguments and the documents, by
    file name, written into its ``$TMP`` before it runs."""
    path = [(1, 2), (2, 3)]
    networks = {
        "self-loop": _network([(1, 2), (2, 2)]),
        "duplicate-edge": _network([(1, 2), (2, 1)]),
        "id-outside": _network([(1, 2), (2, 4)]),
        "zero-weight": _network([(1, 2, 0.0), (2, 3)]),
        "load-overflow": _network([(1, 2, 1e308), (2, 3, 1e308)]),
        "fractional-id": _network([(1, 2), (2, 1.5)]),
        "bool-id": _network([(True, 2), (2, 3)]),
        "bool-weight": _network([(1, 2, True), (2, 3)]),
        "leader-without-input": _network(path, [{"node": 1}]),
        "leader-sign-2": _network(path, [{"node": 1, "input": 1, "sign": 2}]),
        "leader-node-0": _network(path, [{"node": 0, "input": 1}]),
        "leader-node-4": _network(path, [{"node": 4, "input": 1}]),
        "duplicate-leader": _network(path, [{"node": 1, "input": 1},
                                            {"node": 1, "input": 1}]),
        "x0-nan": _network(path, x0=[0.1, math.nan, 0.3]),
        "input-minus-infinity": _network(path, [{"node": 1, "input": 1}],
                                         inputs=[[-math.inf]]),
    }
    self_arc = json.dumps({"n": 6, "arcs": [{"follower": 1, "followed": 2},
                                            {"follower": 3, "followed": 3}]})
    three_nodes = json.dumps({"n": 3, "arcs": [{"follower": 1, "followed": 2}]})
    documents = {
        "cycle5": _network([(k, k % 5 + 1) for k in range(1, 6)], n=5),
        "star5": _network([(1, k) for k in range(2, 6)], n=5),
        "star4": _network([(1, k) for k in range(2, 5)], n=4),
        "disconnected": _network([(1, 2), (3, 4)], n=4),
        "unbalanced": _network([(1, 2), (2, 3), (1, 3, -1.0)]),
        "isolated": _network([(1, 2)], [{"node": 1, "input": 1}]),
        "consensus": json.dumps(CONSENSUS)}
    documented = [
        ("select", "cycle5", "--mode", "fan-fsn"),
        ("tempo", "star5", "--pairs", "1:2"),
        ("distributed-select", "star4", "--fan-tree"),
        ("select", "disconnected", "--mode", "fan-fsn"),
        ("select", "unbalanced", "--mode", "fan-fsn"),
        ("select", "isolated", "--mode", "san-fsn"),
        ("distributed-select", "consensus", "--fan-tree")]
    return [*[(["analyze", f"$TMP/{name}.json"], {f"{name}.json": text})
              for name, text in networks.items()],
            (["simulate", "g6", "--reduced", "$TMP/self-arc.json",
              "--out", "$TMP/traj.csv"], {"self-arc.json": self_arc}),
            *[([command, f"$TMP/{name}.json", *rest], {f"{name}.json": documents[name]})
              for command, name, *rest in documented],
            *[(["tempo", "g8", "--pairs", pairs], {})
              for pairs in ("7-3", "7:99", "1_0:1")],
            (["analyze", "nosuch"], {}),
            (["simulate", "g6", "--reduced", "$TMP/three-nodes.json",
              "--out", "$TMP/traj.csv"], {"three-nodes.json": three_nodes}),
            (["simulate", "g6", "--method", "euler", "--dt", "1",
              "--out", "$TMP/traj.csv"], {})]


def failing_checks() -> list[tuple[list[str], dict[str, str]]]:
    """The commands whose sampled checks fail, each with the document
    written into its ``$TMP``: on a weighted K4 the hub's sampled tempo is
    far from its eigenvector limit at the default horizon; on a leader
    network with a near-tie the distributed rule drops an arc the
    centralized one keeps; and on a path at consensus no difference rises
    above the noise floor, and agent 1's limit for neighbor 2 diverges."""
    def doc(n: int, edges: list[tuple], **rest) -> dict:
        return {"n": n, "edges": [dict(zip("ijw", e)) for e in edges], **rest}

    docs = {
        "k4": doc(4, [(1, 2, 1.54), (1, 3, 0.94), (1, 4, 0.5), (2, 3, 1.96),
                      (2, 4, 0.95), (3, 4, 0.97)], x0=[0.89, 0.59, 0.47, 0.77]),
        "leader": doc(5, [(1, 2), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5)],
                      leaders=[{"node": 4, "input": 1}], inputs=[[1.0]],
                      x0=[0.63, 0.9, 0.78, 0.23, 0.3]),
        "consensus": CONSENSUS,
    }
    hub = ["--pairs", "1:2,1:3,1:4"]
    return [([command, f"$TMP/{name}.json", *rest],
             {f"{name}.json": json.dumps(docs[name])})
            for command, name, *rest in (
                ("compare", "k4"),
                ("tempo", "k4", *hub),
                ("tempo", "k4", *hub, "--first-component"),
                ("distributed-select", "leader"),
                ("tempo", "consensus", "--pairs", "1:2,2:1"))]


def run(main, argv: list[str], seed: str,
        inputs: Optional[dict[str, str]] = None) -> dict:
    """One command's exit code, stdout, stderr and the files in its
    directory, into which ``inputs`` (text by file name) are written first."""
    os.environ["FSNLAB_SEED"] = seed
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (inputs or {}).items():
            Path(tmp, name).write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("$TMP", tmp) for a in argv])
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(Path(tmp).iterdir())}
        return {"argv": argv, "seed": seed, "exit": code,
                "stdout": out.getvalue().replace(tmp, "$TMP"),
                "stderr": err.getvalue().replace(tmp, "$TMP"), "files": files}


def record(src: str, fixtures=FIXTURES, seeds=SEEDS) -> list[dict]:
    """The records of every command on ``fixtures`` at ``seeds``, of the
    decision runs at the first seed, of the failing checks at ``seeds``,
    then of the refusals at the first seed, with the package imported from
    ``src``."""
    sys.path.insert(0, str(Path(src).resolve()))
    import fsnlab
    from fsnlab import load_fixture
    from fsnlab.cli import main

    if Path(fsnlab.__file__).parent.parent.resolve() != Path(src).resolve():
        raise RuntimeError(f"fsnlab is already imported from {fsnlab.__file__}")

    seed = os.environ.get("FSNLAB_SEED")
    try:
        return [*[run(main, argv, s) for s in seeds for name in fixtures
                  for argv in commands(name, hub_pairs(load_fixture(name)[0]))],
                *[run(main, argv, seeds[0]) for argv in DECISIONS],
                *[run(main, argv, s, inputs) for s in seeds
                  for argv, inputs in failing_checks()],
                *[run(main, argv, seeds[0], inputs) for argv, inputs in refusals()]]
    finally:
        if seed is None:
            os.environ.pop("FSNLAB_SEED", None)
        else:
            os.environ["FSNLAB_SEED"] = seed


def _openblas_config() -> str:
    """OpenBLAS's configuration string as the loaded library reports it:
    under DYNAMIC_ARCH it names the core picked at run time, whose kernels
    decide the last bits of every eigensolve.  numpy's build-time string
    (which names the core of the build host) where the library is not
    numpy's bundled one."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        blas = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config"):
            if hasattr(blas, symbol):
                get = getattr(blas, symbol)
                get.restype = ctypes.c_char_p
                return get().decode()
    return np.__config__.CONFIG["Build Dependencies"]["blas"].get(
        "openblas configuration", "none")


def fingerprint() -> dict[str, str]:
    """The versions and the BLAS core that a record holds only for: the
    same source gives other last digits under another of them."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "orjson": orjson.__version__,
            "openblas configuration": _openblas_config()}


def differences(recorded: dict, running: dict) -> list[str]:
    """What moved from the ``recorded`` document to the ``running`` one:
    each fingerprint field that differs, then per command its argv and seed
    with the exit codes, a unified diff of stdout and stderr and the files
    whose sha256 moved.  Empty when the two agree."""
    moved = [f"fingerprint {field!r}: recorded {recorded['fingerprint'].get(field)!r}, "
             f"running {value!r}" for field, value in running["fingerprint"].items()
             if recorded["fingerprint"].get(field) != value]
    key = lambda r: (tuple(r["argv"]), r["seed"])
    name = lambda r: f"{' '.join(r['argv'])} (FSNLAB_SEED={r['seed']})"
    old = {key(r): r for r in recorded["records"]}
    new = {key(r): r for r in running["records"]}
    for r in recorded["records"]:
        s = new.get(key(r))
        if s is None:
            moved.append(f"{name(r)}: recorded but not run")
            continue
        lines = [] if r["exit"] == s["exit"] else [f"exit {r['exit']}, now {s['exit']}"]
        for stream in ("stdout", "stderr"):
            # Lines keep their ends, so that a lost final newline shows too.
            lines += [line.rstrip("\n") for line in difflib.unified_diff(
                r[stream].splitlines(True), s[stream].splitlines(True),
                f"recorded {stream}", f"running {stream}")]
        files = sorted(f for f in r["files"].keys() | s["files"].keys()
                       if r["files"].get(f) != s["files"].get(f))
        if files:
            lines.append(f"sha256 moved: {', '.join(files)}")
        if lines:
            moved.append("\n".join([name(r), *lines]))
    return moved + [f"{name(s)}: run but not recorded"
                    for s in running["records"] if key(s) not in old]


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    records = record(sys.argv[1])
    document = {"fingerprint": fingerprint(), "records": records}
    Path(sys.argv[2]).write_text(json.dumps(document, indent=1) + "\n")
    print(f"{len(records)} records written to {sys.argv[2]}")
