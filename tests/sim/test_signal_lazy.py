"""Lazy signal commits against an eager oracle.

A :class:`~repro.sim.signal.Signal` without subscribers defers its delta
commit instead of queueing it as a kernel event.  ``EagerSignal`` below is
the oracle: every changing write queues its commit event, as the
``sc_signal`` update phase does.  Hypothesis programs of writes, reads,
``write_now``, subscribe and unsubscribe run on both, across times and delta
cycles, with runs ending on the time bound, on a drained queue, on
``stop()`` and on ``max_events``.  Every read, change time, subscriber
``(old, new, now)`` stream, program-event order and the kernel's final
``(now, delta)`` must match.

The pinned ``events_dispatched`` counts at the end fail loudly if a commit
event per unobserved write, or a separate TX-end event per transmission,
comes back.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.baseband.packets import PacketType
from repro.experiments import fig10_master_rf_activity as fig10
from repro.experiments.common import paper_config
from repro.experiments.fig08_failure_probability import TIMEOUT_SLOTS
from repro.link.page import PageTarget
from repro.link.traffic import DutyCycleTraffic
from repro.sim.monitor import EdgeCounter
from repro.sim.signal import Signal
from repro.sim.simulator import Simulator

N_SIGNALS = 2


class EagerSignal(Signal):
    """Oracle: every changing write queues its commit as a delta event."""

    __slots__ = ()

    def write(self, value):
        if self._due is not None:
            self._pending = value
            return
        if value == self._value:
            return
        self._pending = value
        self._due = self._sim.schedule_delta(self._commit)


class World:
    """One simulator with ``N_SIGNALS`` signals of one class, interpreting
    a program and logging everything a model could observe."""

    def __init__(self, signal_cls):
        self.sim = Simulator()
        self.signals = [signal_cls(self.sim, f"s{i}", 0)
                        for i in range(N_SIGNALS)]
        self.log: list[tuple] = []
        self.program_events = 0
        self.scheduled = 0
        self.callbacks = {(i, k): self._subscriber(i, k)
                          for i in range(N_SIGNALS) for k in range(2)}

    def _subscriber(self, index: int, kind: int):
        other = self.signals[1 - index]

        def callback(old, new):
            sim = self.sim
            self.log.append(("notify", index, kind, old, new, sim.now,
                             sim.delta, other.read()))
            if kind == 1:  # a reacting subscriber: drives the other signal
                other.write(new)
        return callback

    def _event(self, ops):
        self.scheduled += 1
        label = self.scheduled

        def fire():
            sim = self.sim
            self.program_events += 1
            self.log.append(("event", label, sim.now, sim.delta))
            self.execute(ops)
        return fire

    def execute(self, ops) -> None:
        sim = self.sim
        for op in ops:
            kind = op[0]
            if kind == "write":
                self.signals[op[1]].write(op[2])
            elif kind == "write_now":
                self.signals[op[1]].write_now(op[2])
            elif kind == "read":
                sig = self.signals[op[1]]
                self.log.append(("read", op[1], sig.read(),
                                 sig.last_change_ns))
            elif kind == "value":
                self.log.append(("value", op[1], self.signals[op[1]].value))
            elif kind == "sub":
                self.signals[op[1]].subscribe(self.callbacks[op[1], op[2]])
            elif kind == "unsub":
                callback = self.callbacks[op[1], op[2]]
                if callback in self.signals[op[1]]._subscribers:
                    self.signals[op[1]].unsubscribe(callback)
            elif kind == "stop":
                sim.stop()
            elif kind == "delta":
                sim.schedule_delta(self._event(op[1]))
            else:  # "at"
                sim.schedule(op[1], self._event(op[2]))

    def observe(self, label: str) -> None:
        sim = self.sim
        self.log.append((label, sim.now, sim.delta,
                         [(s.read(), s.last_change_ns) for s in self.signals]))

    def drive(self, steps) -> list[tuple]:
        sim = self.sim
        for step in steps:
            kind = step[0]
            if kind == "ops":  # outside any event, at the current instant
                self.execute(step[1])
            elif kind == "until":
                sim.run(until_ns=sim.now + step[1])
            elif kind == "drain":
                sim.run()
            else:  # "events": run until N more program events, one at a time
                target = self.program_events + step[1]
                while self.program_events < target \
                        and sim.run(max_events=1):
                    pass
            self.observe(kind)
        sim.run()
        self.observe("end")
        return self.log


signal_index = st.integers(0, N_SIGNALS - 1)
leaf_ops = st.one_of(
    st.tuples(st.just("write"), signal_index, st.integers(0, 2)),
    st.tuples(st.just("write_now"), signal_index, st.integers(0, 2)),
    st.tuples(st.just("read"), signal_index),
    st.tuples(st.just("value"), signal_index),
    st.tuples(st.just("sub"), signal_index, st.integers(0, 1)),
    st.tuples(st.just("unsub"), signal_index, st.integers(0, 1)),
    st.just(("stop",)),
)
op_lists = st.recursive(
    st.lists(leaf_ops, max_size=4),
    lambda children: st.lists(st.one_of(
        leaf_ops,
        st.tuples(st.just("delta"), children),
        st.tuples(st.just("at"), st.integers(0, 3), children),
    ), max_size=5),
    max_leaves=24,
)
steps = st.lists(st.one_of(
    st.tuples(st.just("ops"), op_lists),
    st.tuples(st.just("until"), st.integers(0, 4)),
    st.tuples(st.just("drain")),
    st.tuples(st.just("events"), st.integers(1, 4)),
), min_size=1, max_size=8)


@settings(max_examples=400, deadline=None)
@given(program=steps)
def test_lazy_commit_matches_eager_oracle(program):
    assert World(Signal).drive(program) == World(EagerSignal).drive(program)


def test_unobserved_writes_queue_no_events():
    lazy, eager = World(Signal), World(EagerSignal)
    program = [("ops", [("at", 5, [("write", 0, 1), ("delta", [
        ("read", 0), ("write", 0, 2)])])]), ("drain",)]
    assert lazy.drive(program) == eager.drive(program)
    assert lazy.sim.events_dispatched == 2
    assert eager.sim.events_dispatched == 4


class TestPendingSet:
    def test_bounded_after_100k_writes(self):
        sim = Simulator()
        signals = [Signal(sim, f"s{i}", 0) for i in range(N_SIGNALS)]
        peak = [0]

        def toggle(n: int) -> None:
            for sig in signals:
                sig.write(n & 1)
                sig.write((n + 1) & 1)  # last write wins
            peak[0] = max(peak[0], len(sim._lazy))
            if n < 50_000:
                sim.schedule(1 + (n & 1), lambda: toggle(n + 1))
                if n % 7 == 0:
                    sim.schedule_delta(lambda: None)

        sim.schedule(0, lambda: toggle(0))
        sim.run(until_ns=40_000)
        assert len(sim._lazy) <= N_SIGNALS
        sim.run()
        assert peak[0] <= N_SIGNALS
        assert not sim._lazy  # a drained run settles every deferred write
        assert [s.read() for s in signals] == [1, 1]

    def test_drain_leaves_delta_of_the_last_commit(self):
        sim = Simulator()
        sig = Signal(sim, "s", 0)
        sim.schedule(3, lambda: sig.write(1))
        sim.run()
        assert (sim.now, sim.delta, sim.events_dispatched) == (3, 1, 1)
        assert (sig.read(), sig.last_change_ns) == (1, 3)


class TestEdgeCounterMidInstant:
    def _edges(self, signal_cls) -> tuple[int, int]:
        sim = Simulator()
        sig = signal_cls(sim, "rx", False)
        counters = []
        sim.schedule(10, lambda: sig.write(True))
        # attached later in the same instant, before the commit delta
        sim.schedule(10, lambda: counters.append(EdgeCounter(sig)))
        sim.schedule(20, lambda: (sig.write(False), sim.stop()))
        sim.run()
        counters.append(EdgeCounter(sig))  # attached between runs
        sim.run()
        return counters[0].rising, counters[0].falling + counters[1].falling

    def test_counts_the_edge(self):
        assert self._edges(Signal) == (1, 2)
        assert self._edges(Signal) == self._edges(EagerSignal)


# ---------------------------------------------------------------------------
# Pinned kernel event counts (object engine)
# ---------------------------------------------------------------------------

#: 1007 transmissions at 2 events each (listener scan, expiry) plus the
#: inquiry/scan slot chains; eager commits and a TX-end event of its own
#: made this 8571
FIG08_INQUIRY_EVENTS = 4536
#: the slave's listen windows dominate; eager commits made this 33529
FIG10_POINT_EVENTS = 16852


def test_fig08_inquiry_trial_event_count():
    session = Session(config=paper_config(ber=0.0, seed=1,
                                          sync_threshold=0),
                      engine="object")
    inquirer = session.add_device("inquirer")
    scanner = session.add_device("scanner")
    result = session.run_inquiry(inquirer, scanner,
                                 timeout_slots=TIMEOUT_SLOTS)
    assert result.success
    assert session.sim.events_dispatched == FIG08_INQUIRY_EVENTS


def test_fig10_point_event_count():
    session = Session(config=paper_config(seed=10, t_poll_slots=4000),
                      engine="object")
    master = session.add_device("master")
    slave = session.add_device("slave")
    slave.start_page_scan()
    box = []
    master.start_page(PageTarget(addr=slave.addr, clock_estimate=slave.clock),
                      on_complete=box.append)
    while not box:
        session.run_slots(16)
    assert box[0].success
    DutyCycleTraffic(master, 1, duty=0.0025, ptype=PacketType.DM1,
                     payload_len=17).start()
    session.run_slots(fig10.WARMUP_SLOTS + fig10.OBSERVE_SLOTS)
    assert session.sim.events_dispatched == FIG10_POINT_EVENTS
