"""Set-up time probe, run in a fresh process.

Prints the seconds taken to import ``fsnlab.cli`` and to load one
workload's inputs through fsnlab's own loaders, scaled to the baseline
machine's speed by calibration blocks run right after (see ``calib.py``),
and then the same time unscaled.  The argument is the ``inputs.json`` that
the input generation wrote.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    inputs = json.loads(Path(sys.argv[1]).read_text())
    t0 = perf_counter()
    import fsnlab.cli  # noqa: F401  (the import is what is being timed)
    from fsnlab.netfile import load_fixture, parse_network_file
    for name in inputs["fixtures"]:
        load_fixture(name)
    for path in inputs["files"]:
        parse_network_file(Path(path).read_text())
    setup = perf_counter() - t0
    import calib
    print(setup * calib.REFERENCE_S / calib.speed(), setup)


if __name__ == "__main__":
    main()
