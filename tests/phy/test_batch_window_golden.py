"""Golden-digest equivalence: batched-decode channel + windowed hop cache
vs the scalar paths they replaced.

Two multi-piconet scenarios (statistical and bit-accurate channels) are
run twice in-process — once as the package runs them (one sync event per
transmission, 64-slot hop windows) and once through the tests-side
scalar arm: each receiver resolved on its own
(``tests/phy/reference.py::per_listener_sync``) and one-slot hop fills —
and their *physical outcomes* (collisions, transmissions, delivered
bytes, per-device packet counts) must match bit for bit.  The outcomes
are additionally pinned against sha256 digests captured on the tree
before batching, so a matched pair of bugs in both arms cannot slip
through.  (``events_dispatched`` is deliberately not part of the digest:
batching merges a transmission's per-listener sync events into one, which
is exactly the point.)  The hop fills are also checked clock by clock
against the scalar kernel oracle of ``tests/properties/reference.py``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.baseband.hop import HopRegistry, HopSelector
from repro.experiments.ext_interference import build_campaign_session
from repro.phy.channel import Channel
from tests.phy.reference import per_listener_sync
from tests.properties.reference import connection_reference

#: sha256 prefixes of the scenario outcomes, captured before batching
#: (scalar per-listener sync events, scalar per-call hop fills).
GOLDEN_STAT = "ea87f0b01df77318"
GOLDEN_BIT = "cd5dc5712ed5b940"


def _run_scenario(n_piconets: int, seed: int, observe_slots: int,
                  ber: float = 0.0, bit_accurate: bool = False) -> tuple:
    """Build ``n_piconets`` saturated piconets (the campaign's own bring-up
    protocol) and return the physical outcome tuple of the run."""
    session, pairs = build_campaign_session(n_piconets, seed, ber=ber,
                                            bit_accurate=bit_accurate)
    session.run_slots(observe_slots)
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


@pytest.mark.parametrize("name,kwargs,golden", [
    ("statistical", dict(n_piconets=3, seed=97, observe_slots=800),
     GOLDEN_STAT),
    ("bit_accurate", dict(n_piconets=2, seed=53, observe_slots=400,
                          ber=0.002, bit_accurate=True), GOLDEN_BIT),
])
def test_fast_paths_match_scalar_golden(name, kwargs, golden, monkeypatch):
    fast = _run_scenario(**kwargs)
    # the scalar arm: per-listener sync resolution and one-slot hop-memo
    # fills (each session's world-scoped registry starts empty, so every
    # fill is exercised)
    monkeypatch.setattr(Channel, "_sync_batch",
                        per_listener_sync(Channel._sync_batch))
    monkeypatch.setattr(HopSelector, "WINDOW_SLOTS", 1)
    scalar = _run_scenario(**kwargs)
    assert fast == scalar, f"{name}: fast paths diverge from scalar paths"
    assert _digest(fast) == golden, \
        f"{name}: outcomes diverge from the golden digest"


@pytest.mark.parametrize("window", [1, 64])
def test_windowed_hop_fill_matches_scalar_kernel(window, monkeypatch):
    """`connection()` served from a ``window``-slot memo fill equals the
    scalar kernel oracle for every clock, across addresses and
    parities."""
    monkeypatch.setattr(HopSelector, "WINDOW_SLOTS", window)
    rng = np.random.default_rng(11)
    for address in rng.integers(0, 1 << 28, size=8):
        clk_base = int(rng.integers(0, 1 << 26)) & ~1
        clks = [clk_base + 2 * k for k in range(150)] + \
               [clk_base + 1 + 2 * k for k in range(10)] + \
               [int(rng.integers(0, 1 << 27)) for _ in range(20)]
        # a fresh registry: the fill starts from an empty memo regardless
        # of what ran before
        selector = HopSelector(int(address), HopRegistry())
        windowed = [selector.connection(clk) for clk in clks]
        assert windowed == [connection_reference(selector, clk)
                            for clk in clks]
        assert all(isinstance(freq, int) for freq in windowed)


def test_piconet_hop_sequence_matches_connection():
    from repro.baseband.address import BdAddr
    from repro.link.piconet import Piconet

    addr = BdAddr(lap=0x9E8B33, uap=0x5A, nap=0x1234)
    piconet = Piconet(addr)
    clk_start = 4096
    window = piconet.hop_sequence(clk_start, 64)
    selector = HopSelector(addr.hop_address)
    assert [int(freq) for freq in window] == \
        [selector.connection(clk_start + 2 * k) for k in range(64)]
