"""Host-speed calibration.

On a shared host the same sweep can take 1.5x longer from one minute to the
next, because other tenants load the same physical cores.  A fixed loop that
uses no code of the package (small numpy calls plus dict and list work, the
mix the simulator's own loops run) is timed next to every measurement, and
each measurement is scaled by ``REFERENCE_S / calibration``.  Times are then
in seconds at the host speed where the loop takes ``REFERENCE_S``: a slow
spell slows the loop and the measurement alike and cancels, while a change to
the package moves only the measurement.

Set-up is timed in fresh interpreters, where the host's cost of starting a
process and loading shared libraries counts more than its compute speed, so
set-up is scaled by a fresh interpreter that imports numpy alone
(``IMPORT_CODE``), run before the first and after every set-up interpreter.
"""
from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

# typical time of one calibration loop on the 2-vCPU Xeon host the benchmark
# was defined on; only a unit, so scaled times read about like host seconds
REFERENCE_S = 0.05
# typical time of IMPORT_CODE on that host
IMPORT_REFERENCE_S = 0.1

IMPORT_CODE = "import time\nt0 = time.perf_counter()\nimport numpy\nprint(time.perf_counter() - t0)\n"


def calibrate() -> float:
    """Host seconds of one fixed calibration loop."""
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    acc = 0
    for _ in range(4000):
        choices = rng.integers(0, 50, size=20)
        counts = np.bincount(choices, minlength=50)
        acc += int(np.count_nonzero(counts[choices] == 1))
    # bounded containers: the loop must not raise the process's peak memory
    pairs = [(0, 0)] * 1000
    slots = {}
    for i in range(30000):
        acc = (acc * 31 + i) & 0xFFFF
        pairs[i % 1000] = (i, acc)
        slots[i % 97] = slots.get(i % 97, 0) + acc
        if i % 1000 == 999:
            pairs.sort(key=lambda p: p[1])
    return time.perf_counter() - start


def scales(calibrations: Sequence[float], reference: float = REFERENCE_S) -> List[float]:
    """Scale for each measurement taken between two consecutive calibrations."""
    return [2.0 * reference / (a + b) for a, b in zip(calibrations, calibrations[1:])]
