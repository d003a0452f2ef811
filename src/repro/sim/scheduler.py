"""The event queue: a binary heap of :class:`ScheduledEvent` entries."""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.event import EventHandle, ScheduledEvent


class EventQueue:
    """Priority queue ordered by ``(time_ns, delta, sequence)``.

    Heap entries are ``(time_ns, delta, sequence, event)`` tuples: the
    unique, monotonically increasing sequence number breaks every tie, so
    heap comparisons resolve entirely inside the C tuple comparison and
    never reach the event object.

    Cancelled events stay in the heap and are skipped on pop (lazy deletion),
    which keeps cancellation O(1).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, ScheduledEvent]] = []
        self._sequence = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time_ns: int, delta: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute time ``time_ns``, delta ``delta``.

        The returned event is its own cancellation handle."""
        if time_ns < 0:
            raise SimulationError(f"cannot schedule at negative time {time_ns}")
        self._sequence += 1
        event = ScheduledEvent(time_ns, delta, self._sequence, callback)
        heapq.heappush(self._heap, (time_ns, delta, self._sequence, event))
        self._live += 1
        return event

    def push_reserved(self, key: tuple[int, int, int],
                      callback: Callable[[], None]) -> EventHandle:
        """Queue ``callback`` under a ``(time_ns, delta, sequence)`` key
        whose sequence number was reserved earlier (a deferred signal
        commit turning into its event)."""
        time_ns, delta, sequence = key
        event = ScheduledEvent(time_ns, delta, sequence, callback)
        heapq.heappush(self._heap, (time_ns, delta, sequence, event))
        self._live += 1
        return event

    def pop(self) -> Optional[ScheduledEvent]:
        """Remove and return the earliest live event, or None when empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                self._live -= 1
                continue
            self._live -= 1
            return event
        self._live = 0
        return None

    def pop_due(self, until_ns: Optional[int] = None) -> Optional[ScheduledEvent]:
        """Pop the earliest live event strictly before ``until_ns``.

        Returns None when the queue is empty or the head is at/after the
        bound.  This fuses the ``peek_time`` + ``pop`` pair the simulator's
        dispatch loop used to make — one heap inspection per event instead
        of two, which is the kernel's single hottest code path.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            head = heap[0]
            event = head[3]
            if event.cancelled:
                pop(heap)
                self._live -= 1
                continue
            if until_ns is not None and head[0] >= until_ns:
                return None
            pop(heap)
            self._live -= 1
            return event
        self._live = 0
        return None

    def peek_time(self) -> Optional[tuple[int, int]]:
        """Return (time_ns, delta) of the earliest live event without popping."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._live -= 1
        if not heap:
            self._live = 0
            return None
        return (heap[0][0], heap[0][1])

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
