"""SlotEngine decline reason codes: every declined window names why.

Each test starts from a saturated one-piconet world the engine absorbs,
adds exactly one feature the micro loop does not model, and checks the
next window is declined under that feature's code.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.experiments.ext_interference import build_campaign_session
from repro.link.piconet import HoldParams, ParkParams, SniffParams
from repro.link.polling import ExhaustivePolicy
from repro.link.afh import AfhController
from repro.phy.geometry import WaypointMobility
from repro.power.rf_activity import RfActivityProbe
from repro.sim import soa
from repro.sim.soa import ENGINE_ENV_VAR


@pytest.fixture
def world(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "soa")
    session, pairs = build_campaign_session(1, seed=5)
    absorbed = session.slot_engine.windows_absorbed
    session.run_slots(20)
    assert session.slot_engine.windows_absorbed == absorbed + 1
    master, slave = pairs[0]
    return session, master, slave


def _declines_with(session, code: str) -> None:
    engine = session.slot_engine
    absorbed = engine.windows_absorbed
    declined = engine.windows_declined
    before = Counter(engine.declined_by_reason)
    session.run_slots(10)
    assert engine.windows_absorbed == absorbed
    assert engine.windows_declined == declined + 1
    assert engine.declined_by_reason - before == Counter({code: 1})


def test_probe_subscriber(world):
    session, master, _ = world
    RfActivityProbe(master)
    _declines_with(session, soa.DECLINE_SUBSCRIBER)


def test_non_round_robin_policy(world):
    session, master, _ = world
    master.connection_master.policy = ExhaustivePolicy()
    _declines_with(session, soa.DECLINE_POLICY)


def test_afh_controller(world):
    session, master, _ = world
    cm = master.connection_master
    cm.afh = AfhController(cm.piconet, dataclasses.replace(
        master.cfg.afh, enabled=True), channel=master.channel)
    _declines_with(session, soa.DECLINE_AFH)


def test_beacon_park(world):
    session, master, _ = world
    master.connection_master.park(1, ParkParams(beacon_interval_slots=40))
    _declines_with(session, soa.DECLINE_PARK)


def test_hold(world):
    session, master, _ = world
    master.connection_master.set_hold(1, HoldParams(hold_slots=100))
    _declines_with(session, soa.DECLINE_HOLD)


def test_hold_resync_slave(world):
    session, _, slave = world
    slave.connection_slave._begin_resync()
    _declines_with(session, soa.DECLINE_HOLD)


def test_sniff(world):
    session, master, _ = world
    master.connection_master.set_sniff(1, SniffParams(t_sniff_slots=40,
                                                      n_attempt_slots=1))
    _declines_with(session, soa.DECLINE_SNIFF)


def test_lmp_queued(world):
    session, master, _ = world
    master.lm.request_detach(1)
    _declines_with(session, soa.DECLINE_LMP)


def test_mobility(world):
    session, _, _ = world
    session.install_topology(mobility=WaypointMobility())
    _declines_with(session, soa.DECLINE_MOBILITY)


def test_unclassifiable_event(world):
    session, _, _ = world
    session.sim.schedule(1_000, lambda: None)
    _declines_with(session, soa.DECLINE_EVENT)


def test_procedure(world):
    session, _, _ = world
    session.add_device("scanner").start_page_scan()
    _declines_with(session, soa.DECLINE_PROCEDURE)


def test_carrier_sense_off(world):
    session, _, _ = world
    config = session.config
    session.config = dataclasses.replace(
        config, rf=dataclasses.replace(config.rf, carrier_sense=False))
    _declines_with(session, soa.DECLINE_CARRIER_SENSE)


def test_absorbed_windows_record_no_reason(world):
    session, _, _ = world
    engine = session.slot_engine
    before = Counter(engine.declined_by_reason)
    session.run_slots(50)
    assert engine.declined_by_reason == before
    assert sum(before.values()) == engine.windows_declined
