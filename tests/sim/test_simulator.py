"""Kernel scheduling semantics: ordering, delta cycles, cancellation."""

import pytest

from repro.errors import SimulationError
from repro.sim.simulator import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(300, lambda: order.append("c"))
        sim.schedule(100, lambda: order.append("a"))
        sim.schedule(200, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_among_equal_times(self, sim):
        order = []
        for tag in "abc":
            sim.schedule(100, lambda tag=tag: order.append(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_now_advances(self, sim):
        seen = []
        sim.schedule(500, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [500]
        assert sim.now == 500

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_abs_in_past_rejected(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_abs(50, lambda: None)

    def test_events_scheduled_during_run(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(10, lambda: order.append("nested"))

        sim.schedule(100, first)
        sim.run()
        assert order == ["first", "nested"]


class TestRunControl:
    def test_until_excludes_boundary_events(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(1))
        sim.run(until_ns=100)
        assert fired == []
        assert sim.now == 100
        sim.run()
        assert fired == [1]

    def test_until_advances_time_with_empty_queue(self, sim):
        sim.run(until_ns=12345)
        assert sim.now == 12345

    def test_max_events(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(i + 1, lambda i=i: fired.append(i))
        dispatched = sim.run(max_events=3)
        assert dispatched == 3
        assert fired == [0, 1, 2]

    def test_stop_inside_callback(self, sim):
        fired = []
        sim.schedule(1, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_events_dispatched_counter(self, sim):
        for i in range(4):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_dispatched == 4


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(10, lambda: fired.append(1))
        assert handle.cancel() is True
        sim.run()
        assert fired == []

    def test_double_cancel_returns_false(self, sim):
        handle = sim.schedule(10, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

    def test_cancel_after_fire_returns_false(self, sim):
        handle = sim.schedule(10, lambda: None)
        sim.run()
        assert handle.pending is False
        assert handle.cancel() is False

    def test_pending_property(self, sim):
        handle = sim.schedule(10, lambda: None)
        assert handle.pending is True
        sim.run()
        assert handle.pending is False


class TestDeltaCycles:
    def test_delta_events_run_after_same_time_events(self, sim):
        order = []

        def outer():
            sim.schedule_delta(lambda: order.append("delta"))
            order.append("outer")

        sim.schedule(100, outer)
        sim.schedule(100, lambda: order.append("peer"))
        sim.run()
        # the peer event (delta 0) runs before the deferred delta event
        assert order == ["outer", "peer", "delta"]
        assert sim.now == 100

    def test_nested_deltas(self, sim):
        order = []

        def outer():
            sim.schedule_delta(
                lambda: sim.schedule_delta(lambda: order.append("d2")))
            sim.schedule_delta(lambda: order.append("d1"))

        sim.schedule(5, outer)
        sim.run()
        assert order == ["d1", "d2"]

    def test_bound_after_early_drain_resets_delta(self, sim):
        """A run that drains early and advances time to its bound leaves
        no delta behind: the bound instant has had no delta cycles."""
        seen = []
        sim.schedule(10, lambda: sim.schedule_delta(
            lambda: seen.append(sim.delta)))
        sim.run(until_ns=100)
        assert seen == [1]
        assert (sim.now, sim.delta) == (100, 0)

    def test_drain_without_bound_keeps_last_delta(self, sim):
        sim.schedule(10, lambda: sim.schedule_delta(lambda: None))
        sim.run()
        assert (sim.now, sim.delta) == (10, 1)

    def test_at_end_callbacks(self, sim):
        order = []
        sim.at_end(lambda: order.append("end"))
        sim.schedule(1, lambda: order.append("event"))
        sim.run()
        sim.finish()
        assert order == ["event", "end"]
