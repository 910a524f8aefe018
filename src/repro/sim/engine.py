"""A minimal discrete-event simulation engine.

The paper's evaluation uses the authors' own C simulator with an ideal MAC layer; this engine
is its Python counterpart: a time-ordered event queue and nothing else.  Events are plain
callables scheduled at absolute times; ties are broken by insertion order so runs are fully
deterministic.

The queue is a heap of ``(time, order, callback)`` tuples.  ``order`` is unique, so the heap
compares tuples of two numbers in C and never reaches the callback.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Tuple


class Simulator:
    """Time-ordered execution of scheduled callbacks."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._order = itertools.count()
        self._now = 0.0
        self._processed = 0

    # ------------------------------------------------------------------ scheduling

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``time`` (not before the current time)."""
        if math.isnan(time) or time < self._now:
            raise ValueError(f"cannot schedule in the past (now={self._now}, requested={time})")
        heapq.heappush(self._queue, (time, next(self._order), callback))

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after ``delay`` time units (not negative, not NaN)."""
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        heapq.heappush(self._queue, (self._now + delay, next(self._order), callback))

    # ------------------------------------------------------------------ execution

    def run_until(self, end_time: float) -> None:
        """Execute every event scheduled strictly up to and including ``end_time``."""
        queue = self._queue
        while queue and queue[0][0] <= end_time:
            time, _, callback = heapq.heappop(queue)
            self._now = time
            callback()
            self._processed += 1
        self._now = max(self._now, end_time)
