"""fsnlab benchmark: one workload per invocation.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fixtures-cli --seed 1 --seconds 16 --trace 0

Workloads (see ``workloads.py``):

* ``fixtures-cli``: every README command valid for each bundled fixture,
  through ``cli.main``; the RK4 simulator dominates.
* ``select-scale``: ``select`` in three modes and ``analyze`` on generated
  weighted networks with n = 32, 64, 128; the eigensolver dominates.
* ``distributed-random``: ``distributed-select`` on generated separable
  leader networks (d = 1, 3) and trees, n = 8..24; the tempo round loop.
* ``graph-scale``: graph passes, selection and the parsers called directly
  at n = 2000; no eigensolver and no simulator run.

Steps of one run:

1. Generate the inputs from ``--seed`` into ``perfbench/out/<workload>``,
   with reference answers from ``numpy.linalg.eigh``.  Logged, not timed
   as ``setup_s``.
2. ``setup_s``: median over several fresh processes of the time to import
   ``fsnlab.cli`` and load the inputs through fsnlab's loaders.
3. One worker process (one client thread, BLAS threads capped at the
   number of usable cores) runs a warm-up operation, then whole passes of
   operations, checking every output.  The pass count is ``--seconds``
   divided by the workload's baseline pass time, rounded and at least one,
   so the window lasts about ``--seconds`` on the baseline machine and every
   run of a workload times the same operations.  ``op_p50_ms`` and
   ``op_tail_ms`` are Harrell-Davis quantile estimates.

Every timed end-to-end metric is scaled to the baseline machine's speed by
calibration blocks, a fixed piece of work that does not touch fsnlab
(``calib.py``): the shared host's speed moves by a third and more from one
minute to the next, far past the metrics' bounds.  The unscaled figures and
the median scale are printed beside the result.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run
(two traced segments of passes; in the first, each operation also runs
untraced beside its traced run, for the tracing overhead).  ``correct`` is false
when an operation reported success with wrong output, when the work counts
of the two traced segments do not repeat, or when the time budget cut a
traced run short of comparing them; ``failed`` counts every
operation that did not succeed, including failures the program reported
itself.  Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fixtures-cli", "select-scale", "distributed-random", "graph-scale")
PROBES = 9
TIME_LIMIT = 170.0      # seconds for the whole run, below the 180 s allowance


def main() -> int:
    try:
        return run()
    except subprocess.TimeoutExpired as exc:
        print(f"error: {Path(exc.cmd[1]).name} exceeded {exc.timeout:.0f} s",
              file=sys.stderr)
        return 2


def run() -> int:
    start = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (SRC / "fsnlab" / "cli.py").is_file():
        print(f"error: no fsnlab sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    # Every child gets the thread caps before it imports numpy.  This
    # process imports neither numpy nor fsnlab, so the worker's peak
    # resident set is its own.
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
               FSNLAB_SEED=str(args.seed), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = str(cores)

    work = HERE / "out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    gen = subprocess.run([sys.executable, str(HERE / "generate.py"), "--workload",
                          args.workload, "--seed", str(args.seed), "--work", str(work)],
                         env=env, timeout=90)
    if gen.returncode != 0:
        print("error: input generation failed", file=sys.stderr)
        return 2
    generate_s = time.perf_counter() - t0

    probes = []
    for _ in range(PROBES):
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), str(work / "inputs.json")],
                             env=env, capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            print(f"error: set-up probe failed:\n{out.stderr}", file=sys.stderr)
            return 2
        probes.append([float(x) for x in out.stdout.split()[-2:]])
    setup_s = statistics.median(scaled for scaled, _ in probes)

    print(f"workload {args.workload}, seed {args.seed}: inputs generated in "
          f"{generate_s:.2f} s; setup_s probes {[round(x, 4) for x, _ in probes]} "
          f"(unscaled {[round(x, 4) for _, x in probes]}); "
          f"python {sys.version.split()[0]}, {cores} usable cores, BLAS threads "
          f"capped at {cores}", flush=True)
    budget = TIME_LIMIT - (time.perf_counter() - start) - 15.0
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work", str(work), "--budget", str(budget)],
        env=env, timeout=budget + 12.0)
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 2
    res = json.loads((work / "result.json").read_text())

    metrics = dict(res["metrics"])
    if args.trace == 0:
        metrics["setup_s"] = (setup_s, "s")
        print(f"{res['attempted']} operations in {res['passes']} passes over "
              f"{res['elapsed_s']:.2f} s; failed_frac "
              f"{res['failed'] / res['attempted']:.4f}; op_tail_ms is the "
              f"p{res['tail_percentile']:.1f} latency with {res['tail_beyond']} "
              f"of {res['attempted']} samples beyond it (Harrell-Davis estimates, "
              f"as op_p50_ms)")
        print(f"times scaled to the baseline machine's speed by "
              f"{len(res['calibration_blocks'])} calibration blocks, median scale "
              f"{res['scale_median']:.3f}; unscaled: " + ", ".join(
                  f"{k} {v:.6g}" for k, v in res["unscaled"].items()))
    else:
        print(f"{res['attempted']} operations, traced and untraced; counts per "
              f"traced segment: "
              f"{res.get('counts_per_segment')}")
    failures = res["failures"]
    for line in failures[:8] + res["notes"]:
        print(f"  {line}")
    if len(failures) > 8:
        print(f"  ... {len(failures) - 8} more distinct failures in {work / 'result.json'}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:34s} {value:14.6g} {unit}")
    correct = res["wrong"] == 0 and "self_check_failed" not in res
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
