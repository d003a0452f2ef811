"""The simulation kernel: advances time, fires events, hosts processes."""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim import event as _event
from repro.sim.event import EventHandle
from repro.sim.scheduler import EventQueue


class Simulator:
    """A discrete-event simulator with SystemC-style delta cycles.

    Typical use::

        sim = Simulator()
        sim.schedule(1_000, lambda: print("at 1us"))
        sim.run(until_ns=1_000_000)

    Attributes:
        now: current simulation time in nanoseconds.
        delta: current delta cycle within ``now`` (0 for ordinary events).
    """

    def __init__(self) -> None:
        self.now: int = 0
        self.delta: int = 0
        # sequence number of the event being (or last) dispatched: with
        # now and delta it places the kernel against a deferred commit
        self._seq: int = 0
        # signals holding a deferred commit (each at most once)
        self._lazy: set = set()
        self._queue = EventQueue()
        self._stopped = False
        self._events_dispatched = 0
        self._end_callbacks: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay_ns: int, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay_ns`` nanoseconds (>= 0)."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self._queue.push(self.now + delay_ns, 0, callback)

    def schedule_abs(self, time_ns: int, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute time ``time_ns`` (>= now)."""
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns, already at {self.now} ns"
            )
        return self._queue.push(time_ns, 0, callback)

    def schedule_delta(self, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at the current time, one delta cycle later.

        This is the primitive signal writes use: every observer of the
        current instant sees the pre-write value, and the new value becomes
        visible in the next delta.
        """
        return self._queue.push(self.now, self.delta + 1, callback)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        until_ns: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Dispatch events until the queue drains, ``until_ns`` is reached,
        ``max_events`` have fired, or :meth:`stop` is called.

        Events scheduled exactly at ``until_ns`` are *not* executed; time is
        left at ``until_ns`` in that case (mirrors SystemC's sc_start), and
        ``delta`` is 0 whenever the bound moved time or left events queued.
        Returning on a drained queue or on the bound settles the deferred
        signal commits the queue would have dispatched (see
        :mod:`repro.sim.signal`).

        Returns the number of events dispatched by this call.
        """
        self._stopped = False
        dispatched = 0
        queue = self._queue
        fired = _event._FIRED
        while not self._stopped:
            if max_events is not None and dispatched >= max_events:
                break
            event = queue.pop_due(until_ns)
            if event is None:
                held = self._settle_deferred(until_ns) if self._lazy else 0
                if until_ns is not None:
                    if held or len(queue) or until_ns > self.now:
                        self.delta = 0
                    self.now = max(self.now, until_ns)
                break
            self.now = event.time_ns
            self.delta = event.delta
            self._seq = event.sequence
            callback = event.callback
            event.callback = fired
            callback()
            dispatched += 1
        self._events_dispatched += dispatched
        return dispatched

    def _settle_deferred(self, until_ns: Optional[int]) -> int:
        """Land the deferred commits keyed before ``until_ns`` as their
        commit events would have been dispatched, leaving now/delta where
        the last of those events would; return how many stay deferred."""
        last = (self.now, self.delta, self._seq)
        held = set()
        for signal in self._lazy:
            due = signal._due
            if type(due) is not tuple:
                continue  # settled, or handed back as a queued event
            if until_ns is not None and due[0] >= until_ns:
                held.add(signal)
                continue
            if due > last:
                last = due
            signal._land(due[0])
        self._lazy = held
        self.now, self.delta, self._seq = last
        return len(held)

    def _defer(self, signal) -> tuple[int, int, int]:
        """Reserve the key of ``signal``'s commit event without queueing
        it: the sequence number is consumed, so later events order after
        the deferred commit exactly as after a queued one."""
        self._lazy.add(signal)
        queue = self._queue
        queue._sequence += 1
        return (self.now, self.delta + 1, queue._sequence)

    def _passed(self, key: tuple[int, int, int]) -> bool:
        """Has dispatch moved past the event key ``key``?"""
        return key < (self.now, self.delta, self._seq)

    def stop(self) -> None:
        """Stop the current :meth:`run` after the event being dispatched."""
        self._stopped = True

    def finish(self) -> None:
        """Invoke registered end-of-simulation callbacks (tracers, reports)."""
        for callback in self._end_callbacks:
            callback()
        self._end_callbacks.clear()

    def at_end(self, callback: Callable[[], None]) -> None:
        """Register a callback to run when :meth:`finish` is called."""
        self._end_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of live (uncancelled, unfired) events in the queue."""
        return len(self._queue)

    @property
    def events_dispatched(self) -> int:
        """Total events dispatched over the simulator's lifetime."""
        return self._events_dispatched
