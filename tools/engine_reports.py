"""Digest what the distributed engine reports on the benchmark's
distributed-random inputs, so that a change to the engine can show it
moves no decision:

    python tools/engine_reports.py SRC

SRC is a directory holding the ``fsnlab`` package (``src`` of a checkout);
``fsnlab`` is imported from it.  The 100 inputs are those of
``perfbench/workloads.generate_distributed`` (leader networks with d = 1
and d = 3, and autonomous trees), written to a temporary directory with
the generator's reference arc sets; perfbench is only read.  Each input
runs through ``distributed_select`` at eps 1e-2, 1e-3, 1e-4, 1e-5 and
1e-6 (delta at its default), 500 runs in all.

The first line is one sha256 over the reprs of the 500 reports in that
order, a refusal's exception counted as its report.  Then, per eps, the
inputs whose arcs differ from the reference or that are refused.  Two
trees that decide alike print the same lines.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

EPSILONS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def reports(src: str) -> tuple[str, dict[float, list[str]]]:
    """The sha256 over every run's report repr, and per eps the stems of
    the inputs whose arcs differ from the reference, with the package
    imported from ``src``.  No bytecode is written, into perfbench or
    ``src``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(Path(src).resolve()), str(PERFBENCH)]
    import fsnlab
    from fsnlab import Model, TempoError, distributed_select, parse_network_file
    from workloads import generate_distributed

    if Path(fsnlab.__file__).parent.parent.resolve() != Path(src).resolve():
        raise RuntimeError(f"fsnlab is already imported from {fsnlab.__file__}")

    digest, differ = hashlib.sha256(), {eps: [] for eps in EPSILONS}
    with tempfile.TemporaryDirectory() as tmp:
        files = generate_distributed(0, Path(tmp))["files"]
        refs = json.loads((Path(tmp) / "refs.json").read_text())
        inputs = [(Path(f).stem, *parse_network_file(Path(f).read_bytes()))
                  for f in files]
    for eps in EPSILONS:
        for stem, net, cfg, x0 in inputs:
            model = Model(net, None if refs[stem]["kind"] == "tree" else cfg)
            try:
                dnet, report = distributed_select(model, x0, eps=eps)
            except TempoError as exc:
                digest.update(repr(exc).encode())
                differ[eps].append(f"{stem} (refused)")
                continue
            digest.update(repr(report).encode())
            if dnet.arc_set != frozenset(map(tuple, refs[stem]["arcs"])):
                differ[eps].append(stem)
    return digest.hexdigest(), differ


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sha, differ = reports(sys.argv[1])
    print(f"sha256 of the reports: {sha}")
    for eps, stems in differ.items():
        print(f"eps {eps:g}: {len(stems)} differ from the reference"
              f"{': ' + ', '.join(stems) if stems else ''}")
