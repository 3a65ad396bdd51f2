"""The measured process of one benchmark run.

Loads the inputs that ``run.py`` generated, runs one warm-up operation, and
then either times whole passes (``--trace 0``) or measures the per-layer
trace (``--trace 1``).  Writes ``result.json`` into the work directory; the
orchestrator turns it into the final result line.

One client thread drives the program in a closed loop: the next operation
starts only after the previous one and its output check are done.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import calib
import tracer as tracing
import workloads

CAL_EVERY = 0.2      # seconds from one calibration block to the next


@dataclass
class Record:
    label: str
    latency: float    # the call alone
    busy: float       # the call and its output check
    status: str       # ok | failed | wrong
    message: str


def run_one(op: workloads.Op, op_id: int, tracer: tracing.Tracer | None,
            clock=perf_counter) -> Record:
    t0 = clock()
    try:
        if tracer is None:
            result = op.call()
            latency = clock() - t0
        else:
            result, latency = tracer.run_op(op_id, op.kind, op.call)
    except Exception as exc:  # the program's own failure report (or a crash)
        latency = clock() - t0
        return Record(op.label, latency, latency, "failed",
                      f"{type(exc).__name__}: {exc}")
    status, message = op.check(result)
    return Record(op.label, latency, clock() - t0, status, message)


class Calibration:
    """Calibration blocks (see ``calib.py``) run every ``CAL_EVERY`` seconds
    from an interval timer, during operations as well as between them.

    ``clock`` is ``perf_counter`` less the time spent in blocks, so latencies
    measured with it hold the program's work alone.  An operation's scale is
    ``calib.REFERENCE_S`` over the mean of the blocks that ran during it and
    the block on either side.  The machine's speed changes within seconds,
    so blocks taken during an operation follow it where blocks taken only
    between operations cannot: on select-scale's n = 64 and n = 128
    operations, the spread of repeated runs of one operation was 0.2-0.5
    unscaled, 0.1-0.3 scaled by the blocks around it, and 0.03-0.13 scaled
    by the blocks during it as well.
    """

    def __init__(self) -> None:
        self.blocks: list[float] = []
        self.paused = 0.0
        self.inside = False
        self.spans: list[tuple[int, int]] = []   # per operation, blocks taken by its start and by its end

    def _block(self, *_) -> None:
        if self.inside:      # a block that outlasted the interval is not nested
            return
        self.inside = True
        t0 = perf_counter()
        self.blocks.append(calib.block())
        self.paused += perf_counter() - t0
        self.inside = False

    def clock(self) -> float:
        while True:      # retried if a block ran between the two reads
            paused = self.paused
            now = perf_counter()
            if paused == self.paused:
                return now - paused

    def install(self) -> None:
        self._block()
        signal.signal(signal.SIGALRM, self._block)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY, CAL_EVERY)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._block()

    def run(self, op: workloads.Op, op_id: int) -> Record:
        first = len(self.blocks)
        rec = run_one(op, op_id, None, self.clock)
        self.spans.append((first, len(self.blocks)))
        return rec

    def scales(self) -> list[float]:
        return [calib.REFERENCE_S / statistics.mean(self.blocks[a - 1:b + 1])
                for a, b in self.spans]


def measure(make_pass, passes: int, deadline: float,
            tracer: tracing.Tracer | None = None, first_id: int = 0,
            cal: Calibration | None = None):
    """Run whole passes, stopping early only at the hard deadline.

    Operation ids start at ``first_id``.  Returns (records, passes
    completed, elapsed, span index at each pass boundary).
    """
    records: list[Record] = []
    bounds = [len(tracer.start) if tracer else 0]
    t0 = perf_counter()
    for done in range(passes):
        for op in make_pass():
            op_id = first_id + len(records)
            records.append(cal.run(op, op_id) if cal else run_one(op, op_id, tracer))
            if perf_counter() > deadline:
                print(f"stopped mid-pass at the time budget after {len(records)} "
                      "operations", flush=True)
                return records, done, perf_counter() - t0, bounds
        bounds.append(len(tracer.start) if tracer else 0)
    return records, passes, perf_counter() - t0, bounds


def measure_paired(make_pass, passes: int, deadline: float, tracer: tracing.Tracer):
    """Like ``measure`` with the tracer, but each operation also runs once
    untraced next to its traced run, alternating which of the two goes first.

    Returns (traced records, untraced records, passes completed, elapsed,
    span index at each pass boundary).
    """
    traced: list[Record] = []
    plain: list[Record] = []
    bounds = [len(tracer.start)]
    t0 = perf_counter()
    for done in range(passes):
        for k, op in enumerate(make_pass()):
            for on in ((True, False) if k % 2 else (False, True)):
                if not on:
                    plain.append(run_one(op, -1, None))
                    continue
                tracer.install()
                try:
                    traced.append(run_one(op, len(traced), tracer))
                finally:
                    tracer.uninstall()
            if perf_counter() > deadline:
                print(f"stopped mid-pass at the time budget after {len(traced)} "
                      "operations", flush=True)
                return traced, plain, done, perf_counter() - t0, bounds
        bounds.append(len(tracer.start))
    return traced, plain, passes, perf_counter() - t0, bounds


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights, instead of the single sample at that rank.  A pass holds many
    different operations, each timed once; the weights spread the quantile
    over the operations near that rank, so one operation that met a busy
    moment of the machine moves it little.  The Beta masses of the n rank
    intervals are integrated numerically.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    sub = 64
    t = (np.arange(n * sub) + 0.5) / (n * sub)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, sub).sum(axis=1)
    return float(w @ x / w.sum())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (Harrell-Davis value, percentile, samples beyond); with fewer
    than eleven samples it falls back to the maximum.
    """
    n = len(latencies)
    if n < 11:
        return max(latencies), 100.0, 0
    return hd_quantile(latencies, (n - 10) / n), 100.0 * (n - 10) / n, 10


def ok_rate(records: list[Record], seconds: float) -> float:
    return sum(r.status == "ok" for r in records) / seconds


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--budget", type=float, required=True,
                   help="hard limit in seconds for everything after loading")
    args = p.parse_args()

    print(f"numpy {np.__version__}", flush=True)
    _, load, pass_s = workloads.WORKLOADS[args.workload]
    make_pass = load(args.work)
    deadline = perf_counter() + args.budget
    warm = run_one(make_pass()[0], -1, None)
    print(f"warm-up: {warm.label} {warm.latency * 1e3:.1f} ms ({warm.status})", flush=True)

    result: dict = {"notes": []}
    if args.trace == 0:
        cal = Calibration()
        cal.install()
        try:
            records, passes, elapsed, _ = measure(
                make_pass, max(1, round(args.seconds / pass_s)), deadline, cal=cal)
        finally:
            cal.uninstall()
        scales = cal.scales()
        lat = [r.latency * s for r, s in zip(records, scales)]
        busy = sum(r.busy * s for r, s in zip(records, scales))
        value, pct, beyond = tail(lat)
        result["metrics"] = {
            "ops_per_s": (ok_rate(records, busy), "1/s"),
            "op_p50_ms": (1e3 * hd_quantile(lat, 0.5), "ms"),
            "op_tail_ms": (1e3 * value, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        raw = [r.latency for r in records]
        result["unscaled"] = {
            "ops_per_s": ok_rate(records, sum(r.busy for r in records)),
            "op_p50_ms": 1e3 * hd_quantile(raw, 0.5),
            "op_tail_ms": 1e3 * tail(raw)[0]}
        result.update(tail_percentile=pct, tail_beyond=beyond,
                      calibration_blocks=cal.blocks, scales=scales,
                      scale_median=statistics.median(scales))
    else:
        # Two traced segments of m passes each, whose work counts must
        # repeat exactly.  In the first, every operation also runs untraced
        # right beside its traced run, so the tracing overhead compares the
        # same operations at nearly the same moment of the machine's
        # drifting speed.
        m = max(1, round(args.seconds / 3 / pass_s))
        tracer = tracing.Tracer()
        t1, base, p1, e1, b1 = measure_paired(make_pass, m, deadline, tracer)
        tracer.install()
        try:
            t2, p2, e2, b2 = measure(make_pass, m, deadline, tracer, len(t1))
        finally:
            tracer.uninstall()
        missing = [l for l in tracing.LIBRARY_LAYERS if not tracer.layer_functions.get(l)]
        if missing:
            result["notes"].append(f"no public functions found for layers {missing}")
        if min(p1, p2) < m:
            result["self_check_failed"] = (
                f"the time budget cut the traced run short ({p1} and {p2} of {m} "
                f"passes), so the work counts were not compared")
        else:
            _, c1 = tracer.summarize(b1[0], b1[-1], 1)
            _, c2 = tracer.summarize(b2[0], b2[-1], 1)
            c1["operations"], c2["operations"] = len(t1), len(t2)
            differ = {k: (c1[k], c2[k]) for k in c1 if c1[k] != c2[k]}
            if differ:
                result["self_check_failed"] = (
                    f"counts differ between the two traced segments: {differ}")
            result["counts_per_segment"] = c1
        if "self_check_failed" in result:
            result["notes"].append(result["self_check_failed"])
        metrics, _ = tracer.summarize(b1[0], b2[-1], max(p1 + p2, 1))
        # Closed loop: the rate ratio is the ratio of summed latencies.
        metrics["trace.overhead_frac"] = (
            1.0 - sum(r.latency for r in base) / sum(r.latency for r in t1), "ratio")
        result["metrics"] = metrics
        result["functions_per_layer"] = tracer.layer_functions
        tracer.dump(args.work / "trace.npz")
        records, passes, elapsed = t1 + base + t2, p1 + p2, e1 + e2

    result.update(
        attempted=len(records), passes=passes, elapsed_s=elapsed,
        failed=sum(r.status != "ok" for r in records),
        wrong=sum(r.status == "wrong" for r in records),
        failures=sorted({f"{r.label}: {r.status}: {r.message}"
                         for r in records if r.status != "ok"}),
        operations=[(r.label, r.latency, r.status) for r in records])
    (args.work / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
