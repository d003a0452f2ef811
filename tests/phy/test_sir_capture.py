"""Carrier-offset SIR capture model: degenerate equivalence with the
pre-change binary resolver, capture/ACI behaviour, static interferers.

The binding contract is the degenerate profile: with the default
``SirConfig`` (infinite adjacent-channel rejection, 0 dB capture
threshold) and equal transmit powers, the capture resolver must be
byte-identical to the binary resolver it replaced — flags, collision
counter and event schedule alike.  The binary resolver is kept as a
tests-side oracle (``tests/phy/reference.py::resolve_binary``) that these
tests patch onto ``Channel._resolve``.  The golden digests in
``tests/phy/test_batch_window_golden.py`` already pin the capture
resolver against the pre-change tree; here the equivalence is
additionally exercised head-to-head, both on a full campaign scenario
and property-style on random overlap patterns.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.baseband.clock import BtClock
from repro.baseband.packets import Packet, PacketType
from repro.config import SimulationConfig, SirConfig
from repro.errors import ChannelError, ConfigError
from repro.experiments.ext_interference import build_campaign_session
from repro.phy.channel import Channel
from repro.phy.rf import RfFrontEnd, RxExpect
from repro.sim.module import Module
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator
from tests.phy.reference import resolve_binary


def build_world(n_radios: int = 3, ber: float = 0.0, sir: SirConfig = None,
                **cfg_kwargs):
    sim = Simulator()
    if sir is not None:
        cfg_kwargs["sir"] = sir
    config = SimulationConfig(seed=5, **cfg_kwargs).with_ber(ber)
    channel = Channel(sim, "channel", config, RandomStreams(5))
    top = Module(sim, "top")
    radios = [RfFrontEnd(sim, f"rf{i}", top, channel, BtClock())
              for i in range(n_radios)]
    return sim, channel, radios


class Listener:
    def __init__(self):
        self.syncs = []
        self.receptions = []

    def on_sync(self, tx, matched):
        self.syncs.append(matched)
        return matched

    def on_header(self, tx, header_ok, am_addr):
        return True

    def on_reception(self, reception):
        self.receptions.append(reception)


def _dm1(payload=b"x" * 17):
    return Packet(ptype=PacketType.DM1, lap=0x123456, am_addr=1,
                  payload=payload)


class TestDegenerateEquivalence:
    """ACI rejection → ∞ + 0 dB threshold ≡ the pre-change resolver."""

    @staticmethod
    def _campaign_outcome():
        session, pairs = build_campaign_session(2, seed=53)
        session.run_slots(400)
        return (
            session.channel.collisions,
            session.channel.transmissions,
            tuple(slave.rx_buffer.total_bytes for _, slave in pairs),
            tuple(master.connection_master.stats_tx_packets
                  for master, _ in pairs),
            tuple(slave.connection_slave.stats_rx_packets
                  for _, slave in pairs),
        )

    def test_campaign_outcomes_match_binary_resolver(self, monkeypatch):
        capture = self._campaign_outcome()
        monkeypatch.setattr(Channel, "_resolve", resolve_binary)
        binary = self._campaign_outcome()
        assert capture == binary
        assert capture[0] > 0  # the scenario does collide

    @settings(max_examples=40, deadline=None)
    @given(plan=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),       # RF channel
                  st.integers(min_value=0, max_value=500_000)),  # start ns
        min_size=2, max_size=8))
    def test_random_overlaps_match_binary_resolver(self, plan):
        """Random same/nearby-channel overlap patterns: corrupted flags and
        the collision counter agree between the binary resolver oracle and
        the full ``_resolve_capture`` accumulation on the degenerate
        profile (the default)."""

        def run(resolve=None):
            sim, channel, radios = build_world(n_radios=len(plan))
            if resolve is not None:
                # instance attribute: the oracle resolves this world only
                channel._resolve = resolve.__get__(channel)
            transmissions = []
            for radio, (freq, start) in zip(radios, plan):
                sim.schedule(start + 1, lambda r=radio, f=freq:
                             transmissions.append(r.transmit(f, _dm1())))
            sim.run()
            return channel.collisions, [tx.corrupted
                                        for tx in transmissions]

        assert run() == run(resolve_binary)


class TestCapture:
    def test_equal_power_cochannel_destroys_both(self):
        sim, channel, (a, b, c) = build_world()
        listener = Listener()
        c.listener = listener
        sim.schedule(0, lambda: c.rx_on(20, RxExpect(0x123456)))
        sim.schedule(100, lambda: a.transmit(20, _dm1()))
        sim.schedule(200, lambda: b.transmit(20, _dm1()))
        sim.run()
        assert channel.collisions >= 1
        assert all(not r.result.complete for r in listener.receptions)

    def test_strong_wanted_captures_over_weak_interferer(self):
        """With a capture threshold, a 0 dBm wanted signal survives a
        -30 dBm co-channel interferer; the weak side still loses."""
        sir = SirConfig(capture_threshold_db=10.0)
        sim, channel, (a, b, c) = build_world(sir=sir)
        listener = Listener()
        c.listener = listener
        boxes = []
        sim.schedule(0, lambda: c.rx_on(20, RxExpect(0x123456)))
        sim.schedule(100, lambda: boxes.append(a.transmit(20, _dm1())))
        sim.schedule(200, lambda: boxes.append(
            b.transmit(20, _dm1(), power_dbm=-30.0)))
        sim.run()
        wanted, weak = boxes
        assert not wanted.corrupted
        assert weak.corrupted
        assert channel.collisions >= 1  # the weak side lost an overlap
        assert any(r.result.complete for r in listener.receptions)

    def test_custom_power_engages_capture_on_default_profile(self):
        """On the degenerate profile a non-default power matters: a 0 dBm
        wanted signal survives a -30 dBm overlapper even at the 0 dB
        threshold, instead of the binary both-corrupted outcome."""
        sim, channel, (a, b, _) = build_world()
        boxes = []
        sim.schedule(100, lambda: boxes.append(a.transmit(20, _dm1())))
        sim.schedule(200, lambda: boxes.append(
            b.transmit(20, _dm1(), power_dbm=-30.0)))
        sim.run()
        assert not boxes[0].corrupted  # 30 dB SIR > 0 dB threshold
        assert boxes[1].corrupted

    def test_interference_accumulates_across_interferers(self):
        """Two -6 dBm co-channel interferers each leave a 6 dB SIR, but
        together (~ -3 dBm aggregate) they breach a 5 dB threshold."""
        sir = SirConfig(capture_threshold_db=5.0)
        sim, channel, (a, b, c) = build_world(n_radios=3, sir=sir)
        box = []
        sim.schedule(100, lambda: box.append(a.transmit(20, _dm1())))
        sim.schedule(150, lambda: b.transmit(20, _dm1(), power_dbm=-6.0))
        first = []
        sim.schedule(151, lambda: first.append(box[0].corrupted))
        sim.schedule(200, lambda: c.transmit(20, _dm1(), power_dbm=-6.0))
        sim.run()
        assert first == [False]     # one weak interferer alone: captured
        assert box[0].corrupted     # aggregate interference: lost mid-air


class TestAdjacentChannel:
    def test_infinite_rejection_ignores_adjacent(self):
        sim, channel, (a, b, _) = build_world()
        boxes = []
        sim.schedule(100, lambda: boxes.append(a.transmit(20, _dm1())))
        sim.schedule(200, lambda: boxes.append(b.transmit(21, _dm1())))
        sim.run()
        assert not boxes[0].corrupted and not boxes[1].corrupted
        assert channel.collisions == 0

    def test_weak_rejection_makes_adjacent_destructive(self):
        """0 dB ACI rejection turns a ±1 channel overlap into a full
        co-channel-strength collision at the 0 dB threshold."""
        sir = SirConfig(aci_rejection_1_db=0.0, aci_rejection_2_db=0.0)
        sim, channel, (a, b, _) = build_world(sir=sir)
        boxes = []
        sim.schedule(100, lambda: boxes.append(a.transmit(20, _dm1())))
        sim.schedule(200, lambda: boxes.append(b.transmit(21, _dm1())))
        sim.run()
        assert boxes[0].corrupted and boxes[1].corrupted
        assert channel.collisions >= 1

    def test_second_adjacent_attenuation_band(self):
        """±2 channels use the second rejection figure; ±3 never interact."""
        sir = SirConfig(aci_rejection_1_db=0.0, aci_rejection_2_db=0.0)
        sim, channel, (a, b, c) = build_world(sir=sir)
        boxes = []
        sim.schedule(100, lambda: boxes.append(a.transmit(20, _dm1())))
        sim.schedule(200, lambda: boxes.append(b.transmit(22, _dm1())))
        sim.schedule(300, lambda: boxes.append(c.transmit(17, _dm1())))
        sim.run()
        assert boxes[0].corrupted and boxes[1].corrupted  # ±2 interacts
        assert not boxes[2].corrupted                     # ±3 out of span

    def test_strong_rejection_keeps_adjacent_harmless(self):
        sir = SirConfig(aci_rejection_1_db=40.0, aci_rejection_2_db=60.0)
        sim, channel, (a, b, _) = build_world(sir=sir)
        boxes = []
        sim.schedule(100, lambda: boxes.append(a.transmit(20, _dm1())))
        sim.schedule(200, lambda: boxes.append(b.transmit(21, _dm1())))
        sim.run()
        assert not boxes[0].corrupted and not boxes[1].corrupted

    def test_weak_adjacent_interferer_never_corrupts_wanted(self):
        """Satellite statistics: a -40 dB adjacent interferer never corrupts
        a 0 dB wanted signal, even with *no* ACI rejection at all and a
        10 dB capture threshold (SIR stays 40 dB >> threshold), across many
        overlapping packets."""
        sir = SirConfig(aci_rejection_1_db=0.0, aci_rejection_2_db=0.0,
                        capture_threshold_db=10.0)
        sim, channel, (a, b, c) = build_world(sir=sir)
        listener = Listener()
        c.listener = listener
        wanted = []
        period = units.SLOT_PAIR_NS
        sent = 50
        sim.schedule(0, lambda: c.rx_on(20, RxExpect(0x123456)))
        for i in range(sent):
            sim.schedule(period * i + 100,
                         lambda: wanted.append(a.transmit(20, _dm1())))
            sim.schedule(period * i + 200,
                         lambda: b.transmit(21, _dm1(), power_dbm=-40.0))
        sim.run()
        assert len(wanted) == sent
        assert not any(tx.corrupted for tx in wanted)
        complete = [r for r in listener.receptions if r.result.complete]
        assert len(complete) == sent


class TestStaticInterferer:
    def test_cochannel_jam_destroys_packets(self):
        sim, channel, (a, b, _) = build_world()
        channel.add_static_interferer([20], power_dbm=0.0)
        boxes = []
        sim.schedule(100, lambda: boxes.append(a.transmit(20, _dm1())))
        sim.schedule(100, lambda: boxes.append(b.transmit(21, _dm1())))
        sim.run()
        assert boxes[0].corrupted       # parked energy on its channel
        assert not boxes[1].corrupted   # neighbour clean at inf rejection
        assert channel.collisions == 0  # not a transmission pair

    def test_jam_spreads_with_finite_rejection(self):
        sir = SirConfig(aci_rejection_1_db=3.0, aci_rejection_2_db=30.0,
                        capture_threshold_db=0.0)
        sim, channel, (a, b, c) = build_world(sir=sir)
        channel.add_static_interferer([20], power_dbm=0.0)
        boxes = []
        # non-overlapping in time, so only the parked jam interferes
        sim.schedule(100, lambda: boxes.append(a.transmit(21, _dm1())))
        sim.schedule(1_000_000, lambda: boxes.append(b.transmit(22, _dm1())))
        sim.run()
        # ±1: the -3 dB leakage alone stays below the equal-power capture
        # point; ±2 at -30 dB is negligible
        assert not boxes[0].corrupted
        assert not boxes[1].corrupted
        # a second jammer two channels out leaks another -3 dB onto 21;
        # the 0.5 + 0.5 mW aggregate reaches the 0 dB SIR point
        channel.add_static_interferer([22], power_dbm=0.0)
        late = []
        sim.schedule(2_000_000, lambda: late.append(c.transmit(21, _dm1())))
        sim.run()
        assert late[0].corrupted

    def test_weak_jam_is_harmless(self):
        sim, channel, (a, _, _) = build_world()
        channel.add_static_interferer([20], power_dbm=-20.0)
        box = []
        sim.schedule(100, lambda: box.append(a.transmit(20, _dm1())))
        sim.run()
        assert not box[0].corrupted

    def test_jammer_added_mid_air_corrupts_live_transmission(self):
        """Regression: a transmission already in the air when the
        interferer switches on must see its energy.  The old resolver
        only folded the static floor in at ``transmit`` time, so a
        packet straddling the switch-on sailed through untouched."""
        sim, channel, (a, _, _) = build_world()
        box = []
        sim.schedule(100, lambda: box.append(a.transmit(20, _dm1())))
        # DM1 is ~366 µs on air: 200 µs in is mid-packet
        sim.schedule(200_000, lambda: channel.add_static_interferer([20]))
        sim.run()
        assert box[0].corrupted

    def test_mid_air_fold_spares_other_channels_and_expired_packets(self):
        """The mid-air fold touches only live co-channel packets: a
        neighbour-channel packet (infinite ACI rejection) and a packet
        that already ended stay clean; the next packet on the jammed
        channel is corrupted through the normal parked floor."""
        sim, channel, (a, b, c) = build_world()
        boxes = []
        sim.schedule(100, lambda: boxes.append(a.transmit(20, _dm1())))
        sim.schedule(100, lambda: boxes.append(b.transmit(21, _dm1())))
        # both packets are long gone when the jammer arrives
        sim.schedule(1_000_000, lambda: channel.add_static_interferer([20]))
        sim.schedule(1_100_000, lambda: boxes.append(c.transmit(20, _dm1())))
        sim.run()
        assert not boxes[0].corrupted
        assert not boxes[1].corrupted
        assert boxes[2].corrupted

    def test_positioned_jammer_attenuates_with_distance(self):
        """A placed interferer participates through the path-loss model:
        lethal next to the receiver, harmless across the room."""
        from repro.phy.geometry import (LogDistancePathLoss, Position,
                                        Topology)

        def run(jam_distance_m):
            sim, channel, (a, b, _) = build_world()
            topology = Topology(model=LogDistancePathLoss(exponent=2.0))
            channel.set_topology(topology)
            a.topo_key, b.topo_key = "tx", "rx"
            topology.place("tx", (0.0, 0.0))
            topology.place("rx", (1.0, 0.0))
            channel.add_static_interferer(
                [20], position=Position(1.0 + jam_distance_m, 0.0))
            listener = Listener()
            b.listener = listener
            sim.schedule(0, lambda: b.rx_on(20, RxExpect(0x123456)))
            sim.schedule(100, lambda: a.transmit(20, _dm1()))
            sim.run()
            return any(r.result.complete for r in listener.receptions)

        # on the antenna: capture lost at the sync stage, nothing decodes
        assert not run(0.1)
        assert run(50.0)  # 50 m out: ~34 dB below the wanted signal

    def test_channel_range_validated(self):
        sim, channel, _ = build_world()
        with pytest.raises(ChannelError):
            channel.add_static_interferer([79])


class TestSirConfigValidation:
    def test_defaults_are_degenerate(self):
        sir = SirConfig()
        assert math.isinf(sir.aci_rejection_1_db)
        assert math.isinf(sir.aci_rejection_2_db)
        assert sir.capture_threshold_db == 0.0

    def test_rejections_must_be_nonnegative_and_ordered(self):
        with pytest.raises(ConfigError):
            SirConfig(aci_rejection_1_db=-1.0)
        with pytest.raises(ConfigError):
            SirConfig(aci_rejection_1_db=30.0, aci_rejection_2_db=20.0)

    def test_threshold_must_be_finite(self):
        with pytest.raises(ConfigError):
            SirConfig(capture_threshold_db=math.inf)
