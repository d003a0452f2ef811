"""SoA slot engine equivalence: byte-identical to the object kernel.

The engine contract is *identity, not approximation*: a world stepped
through the SoA micro-kernel (``REPRO_ENGINE=soa``) must produce exactly
the physical outcomes of the object kernel — collisions, transmissions,
delivered bytes, per-link packet counters — and exactly the same
:class:`~repro.sim.capture.TimelineCapture` record stream.  Two layers
of evidence:

* the campaign scenarios of the batch/window golden suite, re-run on
  both engines and pinned against the same pre-PR sha256 digests (a
  matched pair of bugs in both engines cannot slip through);
* a Hypothesis sweep over randomized worlds — piconet count, DM1/DM3/DH5
  traffic mixes, adaptive hop maps, static interferers — comparing
  outcome tuples and capture streams record for record.

The deterministic tests also assert the engine actually *absorbed*
windows (``windows_absorbed > 0``): a silently-declining engine would
fall back to the object kernel and pass equivalence vacuously.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.api import Session
from repro.baseband.packets import PacketType
from repro.baseband.timing import HEADER_DECISION_NS, SYNC_DECISION_NS
from repro.experiments.common import page_up_pair, paper_config
from repro.experiments.ext_interference import build_campaign_session
from repro.link.traffic import SaturatedTraffic
from repro.sim.soa import ENGINE_ENV_VAR

#: sha256 prefixes of the scenario outcomes, captured on the pre-PR tree
#: (same goldens as ``tests/phy/test_batch_window_golden.py``).
GOLDEN_STAT = "ea87f0b01df77318"
GOLDEN_BIT = "cd5dc5712ed5b940"


class _engine:
    """Context manager pinning ``REPRO_ENGINE`` (engine choice binds at
    ``Session`` construction, so the scope only needs to cover it)."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self.saved = os.environ.get(ENGINE_ENV_VAR)
        os.environ[ENGINE_ENV_VAR] = self.name

    def __exit__(self, *exc):
        if self.saved is None:
            os.environ.pop(ENGINE_ENV_VAR, None)
        else:
            os.environ[ENGINE_ENV_VAR] = self.saved


def _outcome(session, pairs) -> tuple:
    return (
        session.channel.collisions,
        session.channel.transmissions,
        tuple(slave.rx_buffer.total_bytes for _, slave in pairs),
        tuple(master.connection_master.stats_tx_packets
              for master, _ in pairs),
        tuple(slave.connection_slave.stats_rx_packets for _, slave in pairs),
    )


def _digest(outcome: tuple) -> str:
    return hashlib.sha256(json.dumps(outcome).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Golden-digest scenarios (both engines pinned to the pre-PR outcomes)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name,kwargs,slots,golden", [
    ("statistical", dict(n_piconets=3, seed=97), 800, GOLDEN_STAT),
    ("bit_accurate", dict(n_piconets=2, seed=53, ber=0.002,
                          bit_accurate=True), 400, GOLDEN_BIT),
])
def test_soa_matches_object_golden(name, kwargs, slots, golden):
    with _engine("object"):
        obj_session, obj_pairs = build_campaign_session(**kwargs)
    obj_session.run_slots(slots)
    with _engine("soa"):
        soa_session, soa_pairs = build_campaign_session(**kwargs)
    soa_session.run_slots(slots)
    obj, soa = _outcome(obj_session, obj_pairs), _outcome(soa_session,
                                                          soa_pairs)
    assert soa == obj, f"{name}: SoA engine diverges from the object kernel"
    assert _digest(soa) == golden, \
        f"{name}: outcomes diverge from the pre-PR golden digest"
    # equivalence must not be vacuous: the engine ran the windows itself
    assert soa_session.slot_engine.windows_absorbed > 0


def test_soa_capture_stream_identical():
    """Capture-on worlds on both engines: every timeline record —
    ordering, timestamps, payload fields — must match exactly."""
    with _engine("object"):
        obj_session, obj_pairs = build_campaign_session(3, 97, capture=True)
    obj_session.run_slots(800)
    with _engine("soa"):
        soa_session, soa_pairs = build_campaign_session(3, 97, capture=True)
    soa_session.run_slots(800)
    assert _outcome(soa_session, soa_pairs) == _outcome(obj_session,
                                                        obj_pairs)
    obj_events = list(obj_session.capture._events)
    soa_events = list(soa_session.capture._events)
    assert len(soa_events) == len(obj_events)
    assert soa_events == obj_events
    assert soa_session.slot_engine.windows_absorbed > 0


# ----------------------------------------------------------------------
# Handback inside a transmission's staged delivery
# ----------------------------------------------------------------------

#: Seed of the one-piconet world (one receiver per transmission).
HANDBACK_SEED = 41


def _staged_instants() -> tuple[int, int, int]:
    """Start, sync decision and header decision of the first transmission
    six slots after bring-up of the one-piconet world (found on the
    object kernel; both engines are deterministic and share it)."""
    with _engine("object"):
        session, _ = build_campaign_session(1, HANDBACK_SEED, capture=True)
    after = session.sim.now + 6 * units.SLOT_NS
    session.run_until(after + 4 * units.SLOT_NS)
    start = min(record[0] for record in session.capture._events
                if record[1] == "tx_start" and record[0] >= after)
    delay = session.config.rf.modem_delay_ns
    return (start, start + delay + SYNC_DECISION_NS,
            start + delay + HEADER_DECISION_NS)


def _pending_stage_events(session, start: int) -> dict:
    """The queued channel stage events of the transmission that started
    at ``start``, by callback name."""
    found = {}
    for _, _, _, event in session.sim._queue._heap:
        callback = event.callback
        if event.cancelled or not isinstance(callback, partial):
            continue
        if callback.args[0].start_ns == start:
            found.setdefault(callback.func.__name__, []).append(callback)
    return found


@pytest.mark.parametrize("stage", ["sync", "header"])
@pytest.mark.parametrize("offset_ns", [-1, 0, 1])
def test_soa_handback_between_staged_deliveries(stage, offset_ns):
    """A ``run_until`` bound 1 ns before, at and 1 ns after the sync and
    header decisions of a one-receiver transmission: the SoA engine
    absorbs the window up to the bound, hands the remaining stage events
    back to the kernel (a pending sync as one ``_sync_batch`` event) and
    ends byte-identical to the object kernel, capture stream included."""
    start, sync_at, header_at = _staged_instants()
    bound = (sync_at if stage == "sync" else header_at) + offset_ns
    end = start + 40 * units.SLOT_NS

    runs = {}
    for engine in ("object", "soa"):
        with _engine(engine):
            session, pairs = build_campaign_session(1, HANDBACK_SEED,
                                                    capture=True)
        slot_engine = session.slot_engine
        before = slot_engine.windows_absorbed if slot_engine else 0
        session.run_until(bound)
        absorbed = (slot_engine.windows_absorbed - before
                    if slot_engine else 0)
        pending = _pending_stage_events(session, start)
        session.run_until(end)
        runs[engine] = (session, pairs, pending, absorbed)

    obj_session, obj_pairs, obj_pending, _ = runs["object"]
    soa_session, soa_pairs, soa_pending, absorbed = runs["soa"]
    assert absorbed == 1  # the window up to the bound ran in the engine
    assert soa_pending.keys() == obj_pending.keys()
    if bound <= sync_at:
        # the sync decision is still ahead: one re-materialised batch
        # event holding the one receiver
        (sync,) = soa_pending["_sync_batch"]
        assert len(sync.args[1]) == 1
        assert "_header_stage" not in soa_pending
    else:
        assert "_sync_batch" not in soa_pending
        assert ("_header_stage" in soa_pending) == (bound <= header_at)
    assert _outcome(soa_session, soa_pairs) == _outcome(obj_session,
                                                        obj_pairs)
    assert list(soa_session.capture._events) == \
        list(obj_session.capture._events)


def test_object_engine_has_no_slot_engine():
    with _engine("object"):
        assert Session(seed=1).slot_engine is None
    with _engine("soa"):
        assert Session(seed=1).slot_engine is not None


# ----------------------------------------------------------------------
# Randomized worlds (Hypothesis)
# ----------------------------------------------------------------------

_PTYPES = (PacketType.DM1, PacketType.DM3, PacketType.DH5)


@st.composite
def _worlds(draw):
    n_piconets = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16 - 1))
    ptypes = tuple(draw(st.sampled_from(_PTYPES)) for _ in range(n_piconets))
    afh_spans = []
    for _ in range(n_piconets):
        if draw(st.booleans()):
            start = draw(st.integers(min_value=0, max_value=40))
            width = draw(st.integers(min_value=20,    # spec N_min
                                     max_value=79 - start))
            afh_spans.append((start, start + width))
        else:
            afh_spans.append(None)
    jam = None
    if draw(st.booleans()):
        count = draw(st.integers(min_value=1, max_value=15))
        first = draw(st.integers(min_value=0, max_value=79 - count))
        power = draw(st.sampled_from([-10.0, 0.0]))
        jam = (first, count, power)
    observe_slots = draw(st.sampled_from([200, 400]))
    return n_piconets, seed, ptypes, tuple(afh_spans), jam, observe_slots


def _build_random_world(engine: str, scenario) -> tuple:
    n_piconets, seed, ptypes, afh_spans, jam, observe_slots = scenario
    with _engine(engine):
        session = Session(config=paper_config(seed=seed, t_poll_slots=4000),
                          capture=True)
    pairs = [page_up_pair(session, index, label="soa-equivalence")
             for index in range(n_piconets)]
    if jam is not None:
        first, count, power = jam
        session.channel.add_static_interferer(range(first, first + count),
                                              power_dbm=power)
    for (master, _), ptype, span in zip(pairs, ptypes, afh_spans):
        if span is not None:
            mask = np.zeros(79, dtype=bool)
            mask[span[0]:span[1]] = True
            master.connection_master.piconet.set_channel_map(mask)
        SaturatedTraffic(master, 1, ptype=ptype).start()
    session.run_slots(100)  # warm-up past traffic start
    session.run_slots(observe_slots)
    absorbed = session.slot_engine.windows_absorbed \
        if session.slot_engine is not None else 0
    return _outcome(session, pairs), list(session.capture._events), absorbed


@given(scenario=_worlds())
@settings(max_examples=8, deadline=None, derandomize=True)
def test_soa_equivalent_on_random_worlds(scenario):
    obj_outcome, obj_events, _ = _build_random_world("object", scenario)
    soa_outcome, soa_events, absorbed = _build_random_world("soa", scenario)
    assert soa_outcome == obj_outcome
    assert soa_events == obj_events
    # the steady-state windows must have run through the micro-kernel —
    # a declining engine would make this equivalence vacuous
    assert absorbed > 0
