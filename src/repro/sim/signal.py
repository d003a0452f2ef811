"""Signals with delta-delayed writes and change notification.

A :class:`Signal` mimics ``sc_signal``: ``write()`` does not change the
visible value immediately; the new value commits one delta cycle later, and
subscribers are notified after the commit. Multiple writes within the same
delta collapse to the last one (last-write-wins, like SystemC's request/
update semantics).

**Lazy commit.**  A commit is a kernel event only while someone can see it
happen.  A signal with subscribers schedules its commit as a delta event,
exactly as ``sc_signal`` does.  A signal without subscribers schedules
nothing: ``write()`` records the pending value and the key
``(now, delta + 1, sequence)`` the commit event would have had (the
sequence number is reserved, so every later event orders after it, just as
after a real commit event).  The write then *settles* — becomes the
committed value, with ``last_change_ns`` set to the write's time — at the
first settle point that finds the kernel past that key:

* ``read()``, :attr:`Signal.value`, :attr:`Signal.last_change_ns` and the
  next ``write()``;
* ``Simulator.run`` returning on a drained queue or on its time bound,
  which settles every deferred commit the queue would have dispatched;
* ``subscribe()``: a write that is already due settles; one that is not
  yet due is handed back to the kernel as the ordinary commit event at its
  reserved key, so the new subscriber sees the edge it would have seen.

Every observable — values read, change times, subscriber ``(old, new)``
streams and their order against other events — is that of the eager
commit; only ``Simulator.events_dispatched`` no longer counts the commits
nobody watched.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from repro.sim.simulator import Simulator

T = TypeVar("T")


class Signal(Generic[T]):
    """A single-driver signal carrying values of type ``T``.

    While it has no subscribers its commits are deferred, not queued;
    the module docstring lists the settle points and the subscribe
    hand-over.

    Attributes:
        name: hierarchical name (used by tracers).
    """

    __slots__ = ("_sim", "name", "_value", "_pending", "_due",
                 "_subscribers", "_last_change_ns")

    def __init__(self, sim: Simulator, name: str, initial: T):
        self._sim = sim
        self.name = name
        self._value: T = initial
        self._pending: T = initial
        # None: nothing pending; a tuple: the (time_ns, delta, sequence)
        # key of a deferred commit; else the queued commit event itself
        self._due: object = None
        self._subscribers: list[Callable[[T, T], None]] = []
        self._last_change_ns: int = 0

    # -- value access ---------------------------------------------------

    def read(self) -> T:
        """Current committed value."""
        if self._due is not None:
            self._settle()
        return self._value

    @property
    def value(self) -> T:
        """Alias for :meth:`read`, convenient in expressions."""
        return self.read()

    def write(self, value: T) -> None:
        """Request the signal to take ``value`` one delta cycle from now.

        Writing the committed value again while no write is pending is a
        no-op and schedules nothing: the commit would compare-equal and
        change neither the value, ``last_change_ns`` nor any subscriber's
        view.  Link controllers re-assert ``enable_rx``/``enable_tx``
        every slot, so this skip removes a delta-cycle event per re-assert
        from the kernel's hot loop.  A changing write to a signal without
        subscribers is deferred instead of scheduled (see the module
        docstring).
        """
        due = self._due
        if due is not None:
            if type(due) is not tuple or not self._sim._passed(due):
                self._pending = value  # same delta: last write wins
                return
            self._land(due[0])
        if value == self._value:
            return
        self._pending = value
        if self._subscribers:
            self._due = self._sim.schedule_delta(self._commit)
        else:
            self._due = self._sim._defer(self)

    def write_now(self, value: T) -> None:
        """Commit ``value`` immediately (bypasses the delta delay).

        A pending write is dropped, and with it its commit (a queued commit
        event is cancelled).  Use only from contexts that are not racing
        other readers, e.g. initialisation before the simulation starts.
        """
        due = self._due
        if type(due) is tuple:
            self._settle()  # a write already due has committed
        elif due is not None:
            due.cancel()
        self._due = None
        self._pending = value
        self._land(self._sim.now)

    # -- subscription -----------------------------------------------------

    def subscribe(self, callback: Callable[[T, T], None]) -> None:
        """Call ``callback(old, new)`` after every committed change."""
        due = self._due
        if type(due) is tuple:
            sim = self._sim
            if sim._passed(due):
                self._land(due[0])
            else:  # hand the deferred commit back as its kernel event
                self._due = sim._queue.push_reserved(due, self._commit)
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[T, T], None]) -> None:
        """Remove a previously subscribed callback."""
        self._subscribers.remove(callback)

    @property
    def last_change_ns(self) -> int:
        """Simulation time of the most recent committed change."""
        if self._due is not None:
            self._settle()
        return self._last_change_ns

    # -- internals --------------------------------------------------------

    def _commit(self) -> None:
        """The queued commit event."""
        self._land(self._sim.now)

    def _settle(self) -> None:
        """Land a deferred write once the kernel has passed its key."""
        due = self._due
        if type(due) is tuple and self._sim._passed(due):
            self._land(due[0])

    def _land(self, time_ns: int) -> None:
        """Make the pending write the committed value as of ``time_ns``."""
        self._due = None
        old = self._value
        new = self._pending
        if new == old:
            return
        self._value = new
        self._last_change_ns = time_ns
        for callback in list(self._subscribers):
            callback(old, new)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name}={self._value!r})"
