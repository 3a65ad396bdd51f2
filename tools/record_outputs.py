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

OUT.json lists, per command, its arguments, seed, exit code, stdout,
stderr and the sha256 of every file it wrote; each command writes into a
fresh temporary directory, which the record spells ``$TMP``.  Record two
trees and compare:

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


def run(main, argv: list[str], seed: str) -> dict:
    """One command's exit code, stdout, stderr and written files."""
    os.environ["FSNLAB_SEED"] = seed
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("$TMP", tmp) for a in argv])
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(Path(tmp).iterdir())}
        return {"argv": argv, "seed": seed, "exit": code,
                "stdout": out.getvalue().replace(tmp, "$TMP"),
                "stderr": err.getvalue().replace(tmp, "$TMP"), "files": files}


def record(src: str, fixtures=FIXTURES, seeds=SEEDS) -> list[dict]:
    """The records of every command on ``fixtures`` at ``seeds``, with the
    package imported from ``src``."""
    sys.path.insert(0, str(Path(src).resolve()))
    import fsnlab
    from fsnlab import load_fixture
    from fsnlab.cli import main

    if Path(fsnlab.__file__).parent.parent.resolve() != Path(src).resolve():
        raise RuntimeError(f"fsnlab is already imported from {fsnlab.__file__}")

    seed = os.environ.get("FSNLAB_SEED")
    try:
        return [run(main, argv, s) for s in seeds for name in fixtures
                for argv in commands(name, hub_pairs(load_fixture(name)[0]))]
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
