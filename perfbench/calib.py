"""Machine-speed calibration for the timed metrics.

The benchmark runs on a small share of a shared host whose speed moves in
steps that last seconds to minutes: the same fixed inputs run up to half as
fast again from one minute to the next.  A parent and a change measured at
different moments would then differ by more than any useful bound.

``block`` times a fixed piece of work that does not touch fsnlab: an
interpreter loop over ints, floats and a dict, then small numpy
matrix-vector steps, the two kinds of work that fill fsnlab's own loops.
The worker runs a block every 0.2 s from an interval timer, during
operations too, and divides each operation's latency by the mean of the
blocks that ran during it and beside it; the set-up probe runs blocks right
after its timed import.  The timed metrics are those ratios times
``REFERENCE_S``, the block's median time on the baseline machine, so they
read as seconds at the baseline machine's speed.  A slower program raises
the ratio whatever the machine does; a slower machine raises both sides.
``REFERENCE_S`` is a fixed unit: change it, or the work in ``block``, only
together with a new baseline.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median seconds of one block on the baseline machine (2-vCPU Xeon KVM
# guest, Python 3.11, numpy 2.4).
REFERENCE_S = 0.018

_M = np.eye(6) * 0.9 + 0.01
_X0 = np.linspace(0.0, 1.0, 6)


def block() -> float:
    """Seconds taken by one fixed piece of reference work."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    acc = 0.0
    for i in range(50_000):
        key = i & 127
        table[key] = table.get(key, 0) + i
        acc += i * 0.5
    x = _X0
    for _ in range(3_500):
        x = _M @ x + 0.01 * x
    if acc < 0 or not np.isfinite(x).all():      # keeps the work observable
        raise AssertionError("calibration block went wrong")
    return perf_counter() - t0


def speed(blocks: int = 5) -> float:
    """Median of a few blocks, in seconds."""
    return statistics.median(block() for _ in range(blocks))
