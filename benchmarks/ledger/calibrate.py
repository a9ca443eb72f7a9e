"""Host-speed calibration: what makes wall-clock numbers comparable.

The sandboxes this ledger runs in share their host.  Measured while
writing it: the same pure-CPU loop ran 57 % slower for minutes at a
time, and ten-second windows of one workload spread 25-40 % (quartile
distance over median) with nothing else running in the box.  No choice
of statistic over raw seconds survives that, so every rep and every
set-up is bracketed by a fixed *spin* — a third bytecode loop, a third
big-integer ``pow``, a third heap/dict churn, the three things the
workloads' wall is made of — and host seconds are reported scaled to a
reference host on which the spin takes :data:`REFERENCE_S`:

    reported = measured * REFERENCE_S / spin seconds around it

The same windows then spread 4-7 % (9-11 % in the worst spell seen).
Raw seconds and spin seconds are kept beside every scaled value in the
result file.  The spin lives here, outside ``src/``, so no PR to the
program can move it.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: seconds one :func:`spin` takes on the reference host: this 2-core
#: box when quiet, Python 3.11 (400 spins: fastest 0.0382, median 0.0411).
REFERENCE_S = 0.040

_MODULUS = (1 << 1023) + 12345
_EXPONENT = (1 << 511) + 7
_BASE = (1 << 1000) + 99


def spin() -> float:
    """Run the fixed calibration work; returns its wall seconds."""
    start = perf_counter()
    total = 0
    for value in range(320_000):
        total += value
    for offset in range(7):
        pow(_BASE + offset, _EXPONENT, _MODULUS)
    heap: list = []
    table: dict = {}
    for index in range(15_000):
        key = (index * 2654435761) % 1000003
        heapq.heappush(heap, (key, index))
        table[key] = (index, key)
    while heap:
        heapq.heappop(heap)
    return perf_counter() - start


def to_reference(seconds: float, spin_seconds: float) -> float:
    """``seconds`` of host time as seconds on the reference host."""
    return seconds * REFERENCE_S / spin_seconds
