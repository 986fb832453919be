"""Machine-speed calibration for a shared, noisy host.

On a small VM the same operation can take twice as long for tens of
seconds at a time while other guests load the host.  The slowdown hits
any CPU-bound Python code alike, so the benchmark times a fixed kernel
next to every operation and rescales each measured time by
``REFERENCE_S / kernel time``: it reports times as they would read on a
host where the kernel takes exactly ``REFERENCE_S``.

The kernel is the shape of a series product (rational exponent sums,
rational coefficient products, a sort and a merge) and does not call the
package, so no change to the package moves it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# the kernel's time on an idle 2-CPU VM (Python 3.11, 2.1 GHz)
REFERENCE_S = 0.0020
WINDOW = 9

_A = [(Fraction(i, 7), Fraction(3 * i + 1, 5)) for i in range(16)]
_B = [(Fraction(j, 5), Fraction(2 - j, 3)) for j in range(15)]


def kernel():
    """One fixed unit of Fraction-heavy work; returns its wall seconds."""
    t0 = time.perf_counter()
    pairs = sorted(((ea + eb, ca * cb) for ea, ca in _A for eb, cb in _B), key=lambda t: t[0])
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0) + c
    return time.perf_counter() - t0


def factors(kernel_times):
    """Per-sample scale factors from the median kernel time around each sample."""
    n = len(kernel_times)
    half = WINDOW // 2
    out = []
    for i in range(n):
        lo = max(0, min(i - half, n - WINDOW))
        out.append(REFERENCE_S / statistics.median(kernel_times[lo : lo + WINDOW]))
    return out
