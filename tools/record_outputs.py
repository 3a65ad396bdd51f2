"""Record what the command-line front end prints and writes, so that two
source trees can be checked for the same outputs.

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

Then, at both seeds, five commands whose sampled checks fail and exit 1
(``failing_checks``): ``compare`` and ``tempo`` on the hub pairs, with
and without ``--first-component``, of a weighted K4 whose tempo has not
settled; ``distributed-select`` of a leader network with a near-tie; and
``tempo`` of a path that starts at consensus, where no sample rises above
the noise floor and one limit diverges.

Then, at the first seed, the refusals: ``analyze`` of each of a fixed set
of bad network documents (a self-loop, a duplicate edge, an id outside
1..n, a zero weight, a node whose weights overflow, a fractional id, and
leader records without an input, with sign 2, on node 0 and n+1, and
twice on one node), and ``simulate g6 --reduced`` of an arc list with a
self-arc (``refusals``).

OUT.json lists, per command, its arguments, seed, exit code, stdout,
stderr and the sha256 of every file in its directory after it ran (its
input documents too); each command runs in a fresh temporary directory,
which the record spells ``$TMP``.  Record two trees and compare:

    python tools/record_outputs.py ../parent/src parent.json
    python tools/record_outputs.py src change.json
    diff parent.json change.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

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


def _network(edges: list[tuple], leaders: Optional[list[dict]] = None) -> str:
    """A three-node network document of (i, j[, w]) edges and leader records."""
    doc = {"n": 3, "edges": [dict(zip("ijw", e)) for e in edges]}
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
        "leader-without-input": _network(path, [{"node": 1}]),
        "leader-sign-2": _network(path, [{"node": 1, "input": 1, "sign": 2}]),
        "leader-node-0": _network(path, [{"node": 0, "input": 1}]),
        "leader-node-4": _network(path, [{"node": 4, "input": 1}]),
        "duplicate-leader": _network(path, [{"node": 1, "input": 1},
                                            {"node": 1, "input": 1}]),
    }
    self_arc = json.dumps({"n": 6, "arcs": [{"follower": 1, "followed": 2},
                                            {"follower": 3, "followed": 3}]})
    return [*[(["analyze", f"$TMP/{name}.json"], {f"{name}.json": text})
              for name, text in networks.items()],
            (["simulate", "g6", "--reduced", "$TMP/self-arc.json",
              "--out", "$TMP/traj.csv"], {"self-arc.json": self_arc})]


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
        "consensus": doc(3, [(1, 2), (2, 3)], x0=[0.5, 0.5, 0.5]),
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
    failing checks at ``seeds``, then of the refusals at the first seed,
    with the package imported from ``src``."""
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
                *[run(main, argv, s, inputs) for s in seeds
                  for argv, inputs in failing_checks()],
                *[run(main, argv, seeds[0], inputs) for argv, inputs in refusals()]]
    finally:
        if seed is None:
            os.environ.pop("FSNLAB_SEED", None)
        else:
            os.environ["FSNLAB_SEED"] = seed


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    records = record(sys.argv[1])
    Path(sys.argv[2]).write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} records written to {sys.argv[2]}")
