"""Discrete-event engine: virtual clock and time-ordered event queue.

This is the substitute for the paper's 25 MHz MC68040: a deterministic
virtual timeline in integer nanoseconds.  The kernel advances the clock
as it charges primitive costs (kernel code runs with interrupts
effectively masked: events that come due while the kernel is charging
time are delivered at the next dispatch point, just as a real kernel
defers interrupts until it re-enables them).

The queue stores ``(time, sequence, event)`` tuples so heap sifting
compares machine integers instead of calling back into Python, and it
keeps live/cancelled bookkeeping incrementally: ``len()`` is O(1) and
cancelled entries are compacted away once they dominate the heap
instead of being rescanned on every query.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

__all__ = ["VirtualClock", "EventQueue", "ScheduledEvent"]

#: Compact the heap once at least this many cancelled entries are
#: buried in it *and* they outnumber the live ones.
_COMPACT_MIN_DEAD = 64


class VirtualClock:
    """Monotonic virtual time in integer nanoseconds.

    ``now`` is a plain attribute: the kernel reads it hundreds of
    thousands of times per simulated second, and a property costs a
    Python call each time.  Use :meth:`advance_to`/:meth:`advance_by`
    to move it -- they enforce monotonicity.
    """

    __slots__ = ("now",)

    def __init__(self, start: int = 0):
        if start < 0:
            raise ValueError(
                f"clock start must be non-negative (got {start})"
            )
        self.now = start

    def advance_to(self, time: int) -> None:
        """Jump forward to an absolute time."""
        if time < self.now:
            raise ValueError(f"clock cannot go backwards ({time} < {self.now})")
        self.now = time

    def advance_by(self, delta: int) -> None:
        """Move forward by a relative amount (used to charge costs)."""
        if delta < 0:
            raise ValueError(
                f"cannot charge negative time (got {delta} at {self.now})"
            )
        self.now += delta


class ScheduledEvent:
    """A pending event: fires ``action()`` at ``time``.

    Events are ordered by ``(time, sequence)``; the sequence number
    makes simultaneous events fire in scheduling order, keeping runs
    deterministic.  ``cancel()`` marks the event dead in place.
    """

    __slots__ = ("time", "sequence", "action", "label", "cancelled", "_queue")

    def __init__(self, time: int, sequence: int, action: Callable[[], None], label: str):
        self.time = time
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = False
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Prevent the event from firing."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._live -= 1
            queue._dead += 1
            # A cancel-heavy queue that stops scheduling would never
            # hit the schedule()-side trigger and peek_time() would
            # degrade to scanning dead heads -- compact from here too.
            if queue._dead >= _COMPACT_MIN_DEAD and queue._dead > queue._live:
                queue._compact()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"<ScheduledEvent {self.label} @{self.time}{state}>"


class EventQueue:
    """Priority queue of :class:`ScheduledEvent` ordered by time."""

    __slots__ = ("_heap", "_sequence", "_live", "_dead")

    def __init__(self):
        self._heap: List[Tuple[int, int, ScheduledEvent]] = []
        self._sequence = 0
        #: Live (scheduled, not cancelled, not popped) events.
        self._live = 0
        #: Cancelled events still buried in the heap.
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def schedule(
        self, time: int, action: Callable[[], None], label: str = "event"
    ) -> ScheduledEvent:
        """Enqueue ``action`` to fire at absolute virtual time ``time``."""
        if time < 0:
            raise ValueError(f"event time must be non-negative (got {time})")
        self._sequence += 1
        event = ScheduledEvent(time, self._sequence, action, label)
        event._queue = self
        heapq.heappush(self._heap, (time, self._sequence, event))
        self._live += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()
        return event

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or ``None`` when empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2].cancelled:
                heapq.heappop(heap)
                entry[2]._queue = None
                self._dead -= 1
                continue
            return entry[0]
        return None

    def pop_due(self, now: int) -> Optional[ScheduledEvent]:
        """Pop the next live event with ``time <= now``, if any."""
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heapq.heappop(heap)
                event._queue = None
                self._dead -= 1
                continue
            if entry[0] <= now:
                heapq.heappop(heap)
                event._queue = None
                self._live -= 1
                return event
            return None
        return None

    def _compact(self) -> None:
        """Rebuild the heap without the cancelled entries.

        Dropped entries are unlinked from the queue (``_queue = None``,
        like the pop/peek trims do), so a compacted-away event no
        longer pins the queue and its closures alive.
        """
        live = []
        for entry in self._heap:
            if entry[2].cancelled:
                entry[2]._queue = None
            else:
                live.append(entry)
        heapq.heapify(live)
        self._heap = live
        self._dead = 0
