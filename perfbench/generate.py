"""Input generation for one benchmark run, in its own process.

Writes the workload's inputs and reference answers into the work directory,
plus ``inputs.json`` listing what the set-up probe loads.  Kept out of the
orchestrating process so that the measured worker, started from it, does
not inherit the generation's memory in its peak resident set.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    args = p.parse_args()

    import fsnlab
    if Path(fsnlab.__file__).resolve().parent != SRC / "fsnlab":
        print(f"error: imported fsnlab from {fsnlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    inputs = workloads.WORKLOADS[args.workload][0](args.seed, args.work)
    (args.work / "inputs.json").write_text(json.dumps(inputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
