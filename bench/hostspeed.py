"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the same code runs up to 1.8x slower for stretches of
seconds to minutes, because of load on other tenants' machines that this
process cannot see.  The loop below does a fixed mix of the work the
package does (interpreter bytecode, numpy calls on small arrays, JSON
encoding) and uses no labelprior code, so no change to the package can
move it.  Timing it just before and just after a command gives the host's
speed during that command; dividing the command's wall time by that factor
gives its time on the reference host.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# Seconds the loop takes on the reference host (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4) in a quiet period.  Only ratios between
# commits matter; this constant just keeps adjusted figures near raw ones.
REFERENCE_S = 6.0e-3


def _loop() -> float:
    rows = np.random.default_rng(0).normal(size=(200, 6))
    acc = 0.0
    for row in rows:
        e = np.exp(row - row.max())
        acc += float(np.log(e.sum())) + float(row @ row)
        acc += len(json.dumps({"a": [float(v) for v in row], "b": "x" * 10}))
    s = 0
    for i in range(20000):
        s += i * i % 7
    return acc + s


def slowdown(repeats: int = 3) -> float:
    """How many times slower than the reference host the loop runs just
    now: the median of a few repeats, so one preempted repeat is ignored."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return statistics.median(times) / REFERENCE_S
