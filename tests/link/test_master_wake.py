"""Event-driven connection master: identical to evaluating every pair.

The master sleeps through pairs its polling policy cannot act on
(:meth:`~repro.link.polling.PollingPolicy.next_pair`) and is woken by
every change to the state the policy reads.  The oracle is the same
round-robin policy evaluated on every pair (its ``next_pair`` returns
``pair + 1``), which is how the master behaved before it slept.  Every
scenario runs under the oracle on the object kernel and event-driven on
both engines; outcomes and TimelineCapture record streams must match
exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.api import Session
from repro.baseband.packets import PacketType
from repro.config import AfhConfig
from repro.experiments import (
    fig10_master_rf_activity as fig10,
    fig11_sniff_rf_activity as fig11,
    fig12_hold_rf_activity as fig12,
)
from repro.experiments.common import paper_config
from repro.experiments.ext_interference import build_campaign_session
from repro.link import connection
from repro.link.connection import ConnectionMaster
from repro.link.page import PageTarget
from repro.link.polling import ExhaustivePolicy, RoundRobinPolicy
from repro.link.traffic import DutyCycleTraffic, PeriodicTraffic
from repro.sim.soa import ENGINE_ENV_VAR


class PerPairRoundRobin(RoundRobinPolicy):
    """The oracle: round-robin choices, evaluated on every pair."""

    def next_pair(self, master, pair):
        return pair + 1


class PerPairExhaustive(ExhaustivePolicy):
    def next_pair(self, master, pair):
        return pair + 1


@contextlib.contextmanager
def _oracle():
    """Every master created in the scope polls with the oracle policy."""
    with mock.patch.object(connection, "RoundRobinPolicy", PerPairRoundRobin):
        yield


@contextlib.contextmanager
def _engine(name: str):
    saved = os.environ.get(ENGINE_ENV_VAR)
    os.environ[ENGINE_ENV_VAR] = name
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(ENGINE_ENV_VAR, None)
        else:
            os.environ[ENGINE_ENV_VAR] = saved


def _run(oracle: bool, engine: str, build, *args):
    with _engine(engine), (_oracle() if oracle else contextlib.nullcontext()):
        return build(*args)


def assert_matches_oracle(build, *args):
    """``build(*args)`` gives the oracle's result on both engines."""
    reference = _run(True, "object", build, *args)
    for engine in ("object", "soa"):
        assert _run(False, engine, build, *args) == reference, engine


def _outcome(session: Session) -> tuple:
    """Physical outcome plus the capture stream of a capture-on world."""
    ends = []
    for device in session.devices:
        for end in (device.connection_master, device.connection_slave):
            if end is not None:
                ends.append((device.basename, end.stats_tx_packets,
                             end.stats_rx_packets))
    return (
        session.sim.now,
        session.channel.collisions,
        session.channel.transmissions,
        tuple((d.rx_buffer.total_received, d.rx_buffer.total_bytes,
               d.lm.pdus_sent, d.lm.pdus_received) for d in session.devices),
        tuple(ends),
        list(session.capture._events),
    )


def _pair_up(seed: int, n_slaves: int = 1, **link):
    session = Session(config=paper_config(seed=seed, **link), capture=True)
    master = session.add_device("master")
    slaves = [session.add_device(f"slave{i}") for i in range(n_slaves)]
    session.build_piconet(master, slaves)
    return session, master, slaves


def _pending_wakes(session: Session, master) -> int:
    even_slot = master.connection_master._even_slot
    return sum(1 for *_key, event in session.sim._queue._heap
               if event.pending and event.callback == even_slot)


# ----------------------------------------------------------------------
# The paper's power figures (their own measurement functions)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("point", [
    (fig10.run_point, 0.0025, 10),
    (fig10.run_point, 0.02, 14),
    (fig11._measure, 11, 100),
    (fig11._measure, 11, 20),
    (fig11._measure, 11, None),
    (fig12._measure_hold, 112, 30),
    (fig12._measure_hold, 114, 480),
], ids=["fig10-0.25%", "fig10-2%", "fig11-T100", "fig11-T20",
        "fig11-active", "fig12-T30", "fig12-T480"])
def test_power_figure_points_match_oracle(point):
    function, *args = point
    assert_matches_oracle(function, *args)


# ----------------------------------------------------------------------
# Capture-on worlds: outcomes and record streams
# ----------------------------------------------------------------------

def _duty_world(seed: int, duty: float):
    session, master, _ = _pair_up(seed, t_poll_slots=4000)
    DutyCycleTraffic(master, 1, duty=duty, ptype=PacketType.DM1,
                     payload_len=17).start()
    session.run_slots(4000)
    return _outcome(session)


def _sniff_world(seed: int, t_sniff: int):
    session, master, _ = _pair_up(seed, t_poll_slots=4000)
    PeriodicTraffic(master, 1, period_slots=100, ptype=PacketType.DM1,
                    payload_len=17).start()
    master.lm.request_sniff(1, t_sniff_slots=t_sniff, n_attempt_slots=1)
    session.run_slots(2500)
    master.lm.request_unsniff(1)
    session.run_slots(800)
    return _outcome(session)


def _hold_world(seed: int, t_hold: int):
    session, master, (slave,) = _pair_up(seed, t_poll_slots=100)
    fig12.HoldCycler(session, master, slave, t_hold)
    session.run_slots(3000)
    return _outcome(session)


def _lmp_world(seed: int):
    """sniff → unsniff → hold → park → unpark → detach, over LMP."""
    session, master, (slave,) = _pair_up(seed, t_poll_slots=200)
    lm = master.lm
    PeriodicTraffic(master, 1, period_slots=90, ptype=PacketType.DM1,
                    payload_len=10).start()
    lm.request_sniff(1, t_sniff_slots=40, n_attempt_slots=2)
    session.run_slots(600)
    lm.request_unsniff(1)
    session.run_slots(300)
    lm.request_hold(1, hold_slots=150)
    session.run_slots(600)
    lm.request_park(1, beacon_interval_slots=40, pm_addr=3)
    session.run_slots(500)
    am_addr = master.connection_master.unpark(3)
    slave.connection_slave.unpark(am_addr)
    session.run_slots(300)
    lm.request_detach(am_addr)
    session.run_slots(300)
    return _outcome(session)


def _policy_world(seed: int):
    """Round-robin → exhaustive → round-robin: a new policy wakes the
    master (the oracle swaps to the per-pair variants)."""
    session, master, _ = _pair_up(seed, t_poll_slots=400)
    per_pair = isinstance(master.connection_master.policy, PerPairRoundRobin)
    session.run_slots(300)
    master.connection_master.policy = \
        PerPairExhaustive() if per_pair else ExhaustivePolicy()
    session.run_slots(200)
    master.connection_master.policy = \
        PerPairRoundRobin() if per_pair else RoundRobinPolicy()
    session.run_slots(600)
    return _outcome(session)


def _afh_world(seed: int):
    config = paper_config(seed=seed, t_poll_slots=60)
    config = dataclasses.replace(config, afh=AfhConfig(
        enabled=True, min_samples=2, assess_interval_slots=100))
    session = Session(config=config, capture=True)
    master = session.add_device("master")
    slave = session.add_device("slave")
    assert session.run_page(master, slave).success
    session.channel.add_static_interferer(range(30), power_dbm=0.0)
    DutyCycleTraffic(master, 1, duty=0.05, ptype=PacketType.DM1).start()
    session.run_slots(3000)
    return _outcome(session)


def _three_slave_world(seed: int):
    session, master, slaves = _pair_up(seed, n_slaves=3, t_poll_slots=120)
    PeriodicTraffic(master, 2, period_slots=70, ptype=PacketType.DM3).start()
    PeriodicTraffic(slaves[0], 0, period_slots=150,
                    ptype=PacketType.DM1).start()
    master.lm.request_sniff(3, t_sniff_slots=50, n_attempt_slots=2)
    session.run_slots(1500)
    master.lm.request_hold(1, hold_slots=200)
    session.run_slots(1000)
    return _outcome(session)


def _second_page_world(seed: int):
    """Paging a second slave suspends and restarts the loop: exactly one
    wake may be pending afterwards."""
    session = Session(config=paper_config(seed=seed, t_poll_slots=300),
                      capture=True)
    master = session.add_device("master")
    first = session.add_device("first")
    second = session.add_device("second")
    assert session.run_page(master, first).success
    DutyCycleTraffic(master, 1, duty=0.02, ptype=PacketType.DM1).start()
    session.run_slots(500)
    assert _pending_wakes(session, master) == 1
    assert session.run_page(master, second).success
    assert _pending_wakes(session, master) == 1
    session.run_slots(1500)
    assert _pending_wakes(session, master) == 1
    return _outcome(session)


@pytest.mark.parametrize("build,args", [
    (_duty_world, (21, 0.0025)),
    (_duty_world, (22, 0.02)),
    (_sniff_world, (23, 60)),
    (_hold_world, (24, 60)),
    (_hold_world, (25, 240)),
    (_lmp_world, (26,)),
    (_policy_world, (27,)),
    (_afh_world, (28,)),
    (_three_slave_world, (29,)),
    (_second_page_world, (30,)),
], ids=["duty-0.25%", "duty-2%", "sniff", "hold-60", "hold-240", "lmp",
        "exhaustive", "afh", "three-slaves", "second-page"])
def test_capture_worlds_match_oracle(build, args):
    assert_matches_oracle(build, *args)


def _saturated_world(seed: int):
    """Absorbed SoA windows, then host calls on exact pair boundaries: the
    handback must leave the master's wake handle live."""
    session, pairs = build_campaign_session(2, seed, capture=True)
    session.run_slots(200)
    master = pairs[0][0]
    clock = master.clock
    cm = master.connection_master
    session.run_until(clock.time_at_tick((cm.pair_index() + 3) * 4))
    master.lm.request_hold(1, hold_slots=80)
    session.run_slots(300)
    session.run_until(clock.time_at_tick((cm.pair_index() + 2) * 4))
    master.enqueue_data(1, b"x" * 17)
    session.run_slots(300)
    absorbed = session.slot_engine.windows_absorbed \
        if session.slot_engine is not None else None
    return _outcome(session), _pending_wakes(session, master), absorbed


def _idle_world(seed: int):
    """An absorbed window ends while the master sleeps toward its T_poll
    deadline; host calls then pull the re-materialised wake forward."""
    session, master, _ = _pair_up(seed, t_poll_slots=4000)
    session.run_slots(600)
    cm = master.connection_master
    session.run_until(master.clock.time_at_tick((cm.pair_index() + 4) * 4))
    master.lm.request_sniff(1, t_sniff_slots=30, n_attempt_slots=1)
    wakes = _pending_wakes(session, master)
    session.run_slots(600)
    absorbed = session.slot_engine.windows_absorbed \
        if session.slot_engine is not None else None
    return _outcome(session), wakes, absorbed


@pytest.mark.parametrize("build", [_saturated_world, _idle_world],
                         ids=["saturated", "idle"])
def test_handback_keeps_one_wake(build):
    reference, wakes, _ = _run(True, "object", build, 31)
    assert wakes == 1
    for engine in ("object", "soa"):
        outcome, wakes, absorbed = _run(False, engine, build, 31)
        assert outcome == reference, engine
        assert wakes == 1
        if engine == "soa":
            assert absorbed > 0  # the equivalence covers a handback


# ----------------------------------------------------------------------
# Same-instant rule
# ----------------------------------------------------------------------

def test_change_on_an_unevaluated_boundary_is_seen_by_that_pair():
    """Data queued exactly on a pair boundary, before the master evaluated
    that pair, goes out on that very pair."""
    session, master, _ = _pair_up(41, t_poll_slots=4000)
    cm = master.connection_master
    session.run_slots(50)  # idle: the master sleeps toward T_poll
    assert _pending_wakes(session, master) == 1
    pair = cm.pair_index() + 5
    session.run_until(master.clock.time_at_tick(pair * 4))
    master.enqueue_data(1, b"now")
    session.run_slots(2)
    assert cm.piconet.slaves[1].last_poll_slot == pair


def test_change_after_the_pair_was_evaluated_waits_one_pair():
    """A change at the boundary instant after that pair's evaluation (here
    one delta later) is served on the next pair."""
    session, master, _ = _pair_up(42, t_poll_slots=4000)
    cm = master.connection_master
    session.run_slots(50)
    pair = cm.pair_index() + 5
    at = master.clock.time_at_tick(pair * 4)

    def enqueue_next_delta():
        session.sim.schedule_delta(lambda: master.enqueue_data(1, b"later"))

    session.sim.schedule_abs(at, enqueue_next_delta)
    session.run_slots(20)
    assert cm.piconet.slaves[1].last_poll_slot == pair + 1


# ----------------------------------------------------------------------
# Randomised injections
# ----------------------------------------------------------------------

_ACTIONS = ("data", "data", "sniff", "unsniff", "hold")


@st.composite
def _injections(draw):
    seed = draw(st.integers(min_value=0, max_value=2 ** 16 - 1))
    steps = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=120),         # pairs ahead
        st.booleans(),                                   # on the boundary
        st.integers(min_value=1, max_value=units.SLOT_PAIR_NS - 1),
        st.sampled_from(_ACTIONS),
        st.integers(min_value=1, max_value=2),           # slave AM_ADDR
        st.integers(min_value=2, max_value=60),          # mode parameter
    ), min_size=1, max_size=8))
    return seed, tuple(steps)


def _injected_world(scenario):
    seed, steps = scenario
    session, master, _ = _pair_up(seed, n_slaves=2, t_poll_slots=160)
    cm = master.connection_master
    for ahead, on_boundary, offset, action, am_addr, param in steps:
        at = master.clock.time_at_tick((cm.pair_index() + ahead) * 4)
        if not on_boundary:
            at += offset
        session.run_until(max(at, session.sim.now))
        if action == "data":
            master.enqueue_data(am_addr, bytes(param % 17 + 1))
        elif action == "sniff":
            master.lm.request_sniff(am_addr, t_sniff_slots=2 * param,
                                    n_attempt_slots=1)
        elif action == "unsniff":
            master.lm.request_unsniff(am_addr)
        else:
            master.lm.request_hold(am_addr, hold_slots=4 * param)
    session.run_slots(400)
    return _outcome(session)


@given(scenario=_injections())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_random_injections_match_oracle(scenario):
    assert_matches_oracle(_injected_world, scenario)


# ----------------------------------------------------------------------
# Event count
# ----------------------------------------------------------------------

def _paged(seed: int, t_poll_slots: int):
    """Page as the power figures do (their own loop, not run_page)."""
    session = Session(config=paper_config(seed=seed,
                                          t_poll_slots=t_poll_slots))
    master = session.add_device("master")
    slave = session.add_device("slave")
    slave.start_page_scan()
    box = []
    master.start_page(PageTarget(addr=slave.addr, clock_estimate=slave.clock),
                      on_complete=box.append)
    while not box:
        session.run_slots(16)
    assert box[0].success
    return session, master


def _fig10_point():
    """The fig10 point at 0.25 % duty."""
    session, master = _paged(10, 4000)
    DutyCycleTraffic(master, 1, duty=0.0025, ptype=PacketType.DM1,
                     payload_len=17).start()
    session.run_slots(fig10.WARMUP_SLOTS + fig10.OBSERVE_SLOTS)
    return session, master


def _fig11_point():
    """The fig11 point at Tsniff = 100 slots."""
    session, master = _paged(11, 4000)
    PeriodicTraffic(master, 1, period_slots=fig11.TRAFFIC_PERIOD_SLOTS,
                    ptype=PacketType.DM1, payload_len=17).start()
    master.lm.request_sniff(1, t_sniff_slots=100, n_attempt_slots=1)
    session.run_slots(fig11.WARMUP_SLOTS + fig11.OBSERVE_SLOTS)
    return session, master


def _counts(oracle: bool, build) -> dict:
    """Kernel events, master evaluations, wake triggers and packets sent."""
    counts = {"even": 0, "wake": 0}
    even_slot = ConnectionMaster._even_slot
    wake = ConnectionMaster.wake

    def counting_even(self):
        counts["even"] += 1
        even_slot(self)

    def counting_wake(self):
        counts["wake"] += 1
        wake(self)

    with _engine("object"), \
            (_oracle() if oracle else contextlib.nullcontext()), \
            mock.patch.object(ConnectionMaster, "_even_slot", counting_even), \
            mock.patch.object(ConnectionMaster, "wake", counting_wake):
        session, master = build()
    counts["events"] = session.sim.events_dispatched
    counts["tx"] = master.connection_master.stats_tx_packets
    return counts


def test_idle_pairs_cost_no_events_fig10():
    oracle = _counts(True, _fig10_point)
    event = _counts(False, _fig10_point)
    assert event["tx"] == oracle["tx"]
    # the oracle evaluates every pair; the event-driven master about twice
    # per packet sent or wake trigger
    assert oracle["even"] > fig10.OBSERVE_SLOTS // 2
    assert event["even"] <= 2 * (event["tx"] + event["wake"]) + 8
    # every event saved is an idle master pair.  The active slave still
    # opens a window every pair (4 of the oracle's 5 events per pair), so
    # the saving here is ~20 %, not more
    assert oracle["events"] - event["events"] == \
        oracle["even"] - event["even"]
    assert event["events"] <= 0.81 * oracle["events"]


def test_idle_pairs_cost_no_events_fig11_sniff():
    """With a sniffing slave the master's idle pairs dominate."""
    oracle = _counts(True, _fig11_point)
    event = _counts(False, _fig11_point)
    assert event["tx"] == oracle["tx"]
    assert event["even"] <= 2 * (event["tx"] + event["wake"]) + 8
    assert event["events"] <= 0.75 * oracle["events"]
