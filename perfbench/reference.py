"""A fixed reference kernel that tracks the machine's current speed.

The benchmark's machine is shared, and its speed drifts by tens of percent
over tens of seconds.  Timing this kernel right before and right after each
job, in the same process, measures the speed the job ran at.  The benchmark
reports every time normalized to a fixed nominal speed:

    normalized = wall time * REF_NOMINAL_S / reference time

The kernel mixes the kinds of work the jobs do: Python object churn, many
small numpy calls, batched 3x3 linear algebra and vector arithmetic.  It
uses no dyadica code, so a change to the library cannot change it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's median time on the 2-core Intel Xeon the benchmark was
# written on.  It only sets the scale of the reported times.
REF_NOMINAL_S = 0.05

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((1500, 3, 3))
_SPD = _A @ _A.transpose(0, 2, 1)
_X = np.linspace(0.0, 1.0, 100_000)


def reference_kernel() -> float:
    table = {}
    for i in range(30_000):
        table[(i % 7, i)] = (i * 0.5, i)
    acc = 0.0
    for i in range(3_000):
        acc += float(np.linalg.norm(np.array((i * 0.5, 1.0)) - np.array((0.25, i * 1.0))))
    for _ in range(2):
        np.linalg.eigh(_SPD)
        np.linalg.norm(_SPD, ord=2, axis=(-2, -1))
    x = _X
    for _ in range(10):
        x = np.sqrt(x * x + 1.0) - 1.0
    return acc + float(x[-1]) + len(table)


def reference_time() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0
