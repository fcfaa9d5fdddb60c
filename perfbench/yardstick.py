"""The machine's speed at a moment: the CPU time of a fixed pure-Python job.

On a host shared with other tenants the CPU time of the same work moves by up
to 2x for minutes at a time.  Each timed piece of work is bracketed by two
yardstick runs in the same process, and its time is scaled by ``YREF`` over
their mean: the time it would have taken on the quiet machine the benchmark
was tuned on.  The job does what encat's checkers do most, looking up
tuple-keyed tables and building tuples, and does not touch encat.
"""

from __future__ import annotations

import time

# CPU seconds of one yardstick run, in a freshly forked child, on the quiet
# tuning machine (2 vCPUs, CPython 3.11).  Only ratios to it matter; it is
# fixed so that two runs of the benchmark are scaled alike.
YREF = 0.0021

_N = 24


def _job() -> int:
    table = {(i, j): (i * j + 1) % _N for i in range(_N) for j in range(_N)}
    acc = 0
    for _ in range(6):
        for i in range(_N):
            for j in range(_N):
                acc += table[(table[(i, j)], table[(j, i)])]
        rows = [tuple(sorted(table[(i, j)] for j in range(_N))) for i in range(_N)]
        acc += len(set(rows))
    return acc


def yardstick() -> float:
    """CPU seconds of one run of the fixed job."""
    start = time.process_time()
    _job()
    return time.process_time() - start


def scale(y_before: float, y_after: float) -> float:
    """Factor that takes a time measured between two yardstick runs to the
    quiet machine."""
    return YREF / ((y_before + y_after) / 2)
