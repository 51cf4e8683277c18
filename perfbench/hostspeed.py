"""Host-speed calibration of the benchmark's host times.

The reference machine is a 2-vCPU virtual machine on a shared host whose
speed switches between a fast and a slow state (~1.7x apart) every few
seconds to a minute (README.md, "Noise").  A whole run can sit in the
slow state, so neither the median nor the best of a run's wall times
is steady.  Instead a fixed pure-Python calibration loop, doing the
program's kind of work (a heap of small objects, dict updates, short
strings), is timed next to the operations, and every host time is
scaled to a host that runs the loop in ``CALIBRATION_S``:

    scaled = wall * CALIBRATION_S / (mean of the loops timed around it)

The loop does not touch ``repro``, so a change to the program moves the
scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter
from typing import Any, Dict, List, Tuple

# The nominal time of one calibration loop: scaled times are host
# seconds on a host that runs it this fast (the reference machine in its
# fast state takes ~11 ms).
CALIBRATION_S = 0.010
# Operation time between two calibration loops.
CALIBRATE_EVERY_S = 0.1


class _Event:
    __slots__ = ("time", "key", "data")

    def __init__(self, time: int, key: str) -> None:
        self.time = time
        self.key = key
        self.data = {"key": key}


def calibration_loop() -> int:
    """A fixed amount of event-queue-like pure-Python work."""
    rng = random.Random(1)
    queue: List[Tuple[float, int, _Event]] = []
    totals: Dict[str, int] = {}
    for index in range(10000):
        heapq.heappush(queue, (rng.random(), index,
                               _Event(index, str(index % 97))))
        if len(queue) > 64:
            event = heapq.heappop(queue)[2]
            totals[event.key] = (totals.get(event.key, 0)
                                 + len(event.data["key"]))
    return len(totals)


def time_calibration() -> float:
    """Host seconds of one calibration loop.  The loop makes no cycles,
    so the collector is paused: its cost would depend on the size of
    the benchmark's heap, not on the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = perf_counter()
        calibration_loop()
        return perf_counter() - began
    finally:
        if enabled:
            gc.enable()


class Calibrated:
    """Wall times of operations by key, scaled by the calibration loops
    timed before and after them.

    ``add`` buffers a wall time; once ``CALIBRATE_EVERY_S`` of buffered
    time has passed (or on ``flush``) a loop is timed and every buffered
    time is scaled by the mean of it and the previous loop."""

    def __init__(self) -> None:
        self.loops = [time_calibration()]
        self.scaled: Dict[Any, List[float]] = {}
        self._pending: List[Tuple[Any, float]] = []
        self._buffered = 0.0

    def add(self, key: Any, wall: float) -> None:
        self._pending.append((key, wall))
        self._buffered += wall
        if self._buffered >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        loop = time_calibration()
        scale = CALIBRATION_S / ((self.loops[-1] + loop) / 2)
        self.loops.append(loop)
        for key, wall in self._pending:
            self.scaled.setdefault(key, []).append(wall * scale)
        self._pending = []
        self._buffered = 0.0
