"""A minimal discrete-event simulation engine.

The paper's evaluation uses the authors' own C simulator with an ideal MAC layer; this engine
is its Python counterpart: a time-ordered event queue and nothing else.  Events are plain
callables scheduled at absolute times; ties are broken by insertion order so runs are fully
deterministic.

The queue is a heap of ``(time, order, handle)`` tuples.  ``order`` is unique, so the heap
compares tuples of two numbers in C and never reaches the handle or its callback.

Cancellation is lazy: a cancelled event stays in the heap (marked dead) until it bubbles to
the front or until cancelled events outnumber live ones, at which point the queue is
compacted in one pass.  A live-event counter keeps :meth:`Simulator.pending_events` O(1)
either way.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Tuple


class EventCancelled(Exception):
    """Raised when a cancelled event handle is used to reschedule."""


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule_at`, usable to cancel the event."""

    __slots__ = ("_time", "_callback", "_simulator", "_cancelled", "_executed")

    def __init__(self, time: float, callback: Callable[[], None], simulator: "Simulator"):
        self._time = time
        self._callback = callback
        self._simulator = simulator
        self._cancelled = False
        self._executed = False

    def cancel(self) -> None:
        if self._cancelled or self._executed:
            return
        self._cancelled = True
        self._simulator._on_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def time(self) -> float:
        return self._time


class Simulator:
    """Time-ordered execution of scheduled callbacks."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._order = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._live = 0  # events in the queue that are neither cancelled nor executed

    # ------------------------------------------------------------------ scheduling

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute time ``time`` (not before the current time)."""
        if math.isnan(time) or time < self._now:
            raise ValueError(f"cannot schedule in the past (now={self._now}, requested={time})")
        handle = EventHandle(time, callback, self)
        heapq.heappush(self._queue, (time, next(self._order), handle))
        self._live += 1
        return handle

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after ``delay`` time units."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    # ------------------------------------------------------------------ execution

    def run_until(self, end_time: float) -> None:
        """Execute every event scheduled strictly up to and including ``end_time``."""
        queue = self._queue  # compaction rewrites it in place, so this stays the queue
        while queue and queue[0][0] <= end_time:
            time, _, event = heapq.heappop(queue)
            if event._cancelled:
                continue
            self._live -= 1
            event._executed = True
            self._now = time
            event._callback()
            self._processed += 1
        self._now = max(self._now, end_time)

    def run_all(self, max_events: int = 1_000_000) -> None:
        """Execute events until the queue drains (bounded by ``max_events`` as a safety net)."""
        executed = 0
        queue = self._queue
        while queue:
            time, _, event = heapq.heappop(queue)
            if event._cancelled:
                continue
            self._live -= 1
            event._executed = True
            self._now = time
            event._callback()
            self._processed += 1
            executed += 1
            if executed >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events without draining")

    def pending_events(self) -> int:
        """Number of not-yet-executed (and not cancelled) events.  O(1)."""
        return self._live

    # ------------------------------------------------------------------ internals

    def _on_cancel(self) -> None:
        self._live -= 1
        # Compact once dead events outnumber live ones, so a long run that schedules and
        # cancels heavily (e.g. protocol timers being refreshed) cannot keep every dead
        # event resident until its timestamp is reached.
        queue = self._queue
        if len(queue) > 8 and len(queue) - self._live > self._live:
            queue[:] = [entry for entry in queue if not entry[2]._cancelled]
            heapq.heapify(queue)
