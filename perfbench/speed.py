"""Machine-speed gauge: a fixed numpy loop timed between the timed chunks.

The speed of this shared machine changes from second to second and from
process to process; CPU time follows wall time, so descheduling is not the
cause. A run therefore reads the gauge (times a fixed calibration unit)
after each timed chunk, and scales the chunk's time by REF_UNIT_S over the
median of the readings around it: a timing then reads as it would at the
reference speed. One reading is too short to judge the speed over a long
call, and the median of WINDOW readings on each side tracks the drift
without the noise of a single reading.

The unit mixes the two kinds of work the simulator does: many numpy calls
on a handful of elements, paid per call, and a pass over an array of 2^20
elements, paid per element.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one unit, measured on the reference machine (README).
REF_UNIT_S = 2.0e-3

WINDOW = 5              # readings on each side of a chunk
UNITS_PER_READING = 10  # about 20 ms
_BIG = 1 << 20


class SpeedGauge:
    def __init__(self) -> None:
        self.samples = []  # seconds per unit, one per reading
        gen = np.random.Generator(np.random.PCG64(20170))
        self._gen = gen
        self._small = np.zeros(64, dtype=bool)
        self._mask = gen.random(_BIG) < 0.5
        self._targets = gen.integers(0, _BIG, size=_BIG // 4)

    def _unit(self) -> int:
        gen, small = self._gen, self._small
        acc = 0
        for _ in range(60):
            idx = gen.integers(0, 64, size=8)
            small[idx] = ~small[idx]
            acc += int(np.count_nonzero(small))
        hits = self._mask[self._targets]
        acc += int(np.flatnonzero(hits).size)
        return acc

    def read(self) -> int:
        """Take one reading; returns the index of the chunk that ends here:
        chunk i lies between readings i - 1 and i."""
        start = time.perf_counter()
        for _ in range(UNITS_PER_READING):
            self._unit()
        self.samples.append((time.perf_counter() - start) / UNITS_PER_READING)
        return len(self.samples) - 1

    def factor(self, chunk: int) -> float:
        """Scale for a chunk, from the readings around it."""
        around = self.samples[max(0, chunk - WINDOW):chunk + WINDOW]
        return REF_UNIT_S / statistics.median(around)
