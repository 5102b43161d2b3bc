"""Host-speed probe: a frozen kernel timed between ops to scale out host drift.

The shared host this benchmark was defined on runs identical work up to
~1.7x slower for minutes at a time (see README.md), while CPU time tracks
wall time, so no estimator over the program's own op times can separate
a slower host from a slower program.  This probe can: it is a fixed mix
of the work the workloads do — elementwise uint8 image-plane ops, a
lookup-table gather, an int16 error sum, a pure-Python gene loop and a
JSON round trip — that lives in the benchmark, not the program, so no
program change moves it.  Slices run between ops (closed loop, never
concurrently with one), about one per 50 ms of op time, and the run's
``slowdown`` is their median time over :data:`NOMINAL_SLICE_S` (the
median, because a slice hit by an interrupt or a garbage collection
says nothing about the host).
"""

from __future__ import annotations

import json
import statistics
import time
from typing import List

import numpy as np

#: Seconds one slice takes at nominal speed: the defining host, at rest.
NOMINAL_SLICE_S = 0.005

#: Op time per probe slice.
EVERY_S = 0.05


class HostProbe:
    """Times probe slices and reports the host's slowdown against nominal."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.planes = rng.integers(0, 256, (9, 128, 128), dtype=np.uint8)
        self.reference = rng.integers(0, 256, (128, 128)).astype(np.int16)
        self.table = rng.integers(0, 256, 1 << 16, dtype=np.uint8)
        self.record = {"genes": list(range(64)), "fitness": 0.0, "name": "probe"}
        self.times: List[float] = []

    def _slice(self) -> int:
        planes, checksum = self.planes, 0
        genes = self.record["genes"]
        for step in range(48):
            a, b, c = planes[step % 9], planes[(step * 3 + 1) % 9], planes[(step * 5 + 2) % 9]
            out = np.minimum(np.maximum(a, b), c)
            looked_up = np.take(self.table, (a.astype(np.uint16) << 8) | b)
            checksum += int(np.abs(out.astype(np.int16) - self.reference).sum())
            checksum += int(looked_up[0, 0])
            for k in range(48):
                index = (step * 7 + k) % 64
                genes[index] = (genes[index] * 31 + k) % 97
            self.record = json.loads(json.dumps(self.record))
            genes = self.record["genes"]
        return checksum

    def run(self, op_wall_s: float) -> None:
        """Run the slices owed for ``op_wall_s`` seconds of op time (at least one)."""
        for _ in range(max(1, round(op_wall_s / EVERY_S))):
            started = time.perf_counter()
            self._slice()
            self.times.append(time.perf_counter() - started)

    @property
    def slowdown(self) -> float:
        """Median slice time over nominal: 1.0 at nominal speed, 1.3 on a host 30% slower."""
        return statistics.median(self.times) / NOMINAL_SLICE_S
