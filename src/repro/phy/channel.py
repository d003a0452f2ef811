"""The shared radio channel (the paper's Fig. 2 module).

Responsibilities:

* **Noise** — bit inversions at the configured BER, either by flipping real
  encoded bits (bit-accurate mode) or by sampling the per-stage decode
  outcome from the closed-form model (statistical mode).
* **Collision resolution** — a carrier-offset **SIR capture model**: every
  transmission accumulates the interference power of co-channel and
  adjacent-channel (±1/±2 MHz, attenuated by the configured ACI rejection)
  overlappers plus any parked static interferers, and is destroyed (the
  resolver's 'X') when its signal-to-interference ratio fails to exceed
  the capture threshold.  The default :class:`~repro.config.SirConfig` is
  degenerate — infinite adjacent rejection, 0 dB threshold, equal powers —
  which reproduces the old binary per-RF-channel resolver byte-for-byte
  (the binary resolver oracle of the capture suite and the golden digests
  enforce this).  Unlike the paper's frequency-less
  resolver we track interference per RF channel, which is strictly more
  accurate and is needed for the multi-piconet extension.
* **Modem delay** — receivers perceive all stage times shifted by the
  configured modulator+demodulator latency.
* **Staged delivery** — carrier-on at TX start, sync-word decision 68 µs in,
  header decision (AM_ADDR visible) 58 µs later, full decode at packet end.
  This produces the exact enable_rx_RF waveforms of the paper's Figs. 5/9,
  including a slave dropping out of a packet addressed to another slave.

The decode outcome for a (transmission, listener) pair is drawn **once**, at
the sync stage, and revealed progressively — so the staged view is always
self-consistent.

Hot-path structure (the many-device piconet campaigns dispatch hundreds of
thousands of these per second):

* Listener lookup is indexed by RF channel: radios report tuning changes
  via :meth:`Channel.listener_retuned`, so a transmission only visits the
  radios tuned to (or frequency-following onto) its own channel — O(radios
  on channel), not O(all radios).  Candidates are visited in attach order,
  which keeps event sequence numbers — and therefore every outcome —
  identical to the full-walk implementation.
* Live transmissions and pending decodes are keyed dicts with per-radio
  indexes, so expiry and :meth:`abort_reception` are O(1) instead of
  identity/key scans.
* Stage callbacks are ``functools.partial`` bindings of bound methods, not
  capturing lambdas — no closure-cell allocation per scheduled stage.
* All receptions of a transmission resolved at the same sync instant are
  grouped into **one sync event** (:meth:`Channel._sync_batch`) whose
  decode outcomes go through the batched
  :func:`~repro.baseband.codec.decode_packets` codec API (bit-accurate
  mode).  Byte-identity with one event per listener: the listeners of a
  transmission would be scheduled back-to-back inside one atomic
  ``_scan_listeners`` event, so nothing could interleave them; each
  listener callback (``on_sync`` / ID-packet ``on_reception``) only
  mutates its *own* device's receiver state, and only ``_full_decode``
  draws from the channel's noise/stage RNG streams — so admitting all
  listeners first, drawing their decode outcomes in listener order and
  then delivering in the same order consumes identical RNG state and
  observes identical guards.  (``tx.corrupted`` is re-read at each
  delivery, preserving collision flags raised mid-batch.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional

from repro.baseband.codec import (
    DecodeResult,
    decode_packet,
    decode_packets,
    encode_packet,
)
from repro.baseband.errormodel import StageErrorModel
from repro.baseband.bits import flip_bits
from repro.baseband.hop import HopRegistry
from repro.baseband.packets import Packet, PacketType
from repro.baseband.timing import HEADER_DECISION_NS, SYNC_DECISION_NS
from repro.config import SimulationConfig
from repro.errors import ChannelError
from repro.phy.geometry import Position, Topology
from repro.phy.noise import BerNoise, GilbertElliottNoise, NoiseModel
from repro.phy.rf import RfFrontEnd
from repro.phy.transmission import Transmission, TxMeta
from repro.sim.module import Module
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator

#: Registry key of a frequency-following receiver (its tuned channel is a
#: function of time, so it is a candidate for every transmission).
_FOLLOWING = -1


def _dbm_to_mw(dbm: float) -> float:
    """Linear power; -inf dBm maps to exactly 0 mW."""
    return 10.0 ** (dbm / 10.0)


@dataclass
class Reception:
    """A completed reception at one radio.

    Attributes:
        tx: the transmission that was received.
        result: staged decode outcome.
        collided: True when the channel resolver saw overlapping packets.
        rx_time_ns: receiver-side end-of-packet time.
    """

    tx: Transmission
    result: DecodeResult
    collided: bool
    rx_time_ns: int

    @property
    def packet(self) -> Packet:
        """The decoded packet (only valid when ``result.complete``)."""
        assert self.result.packet is not None
        return self.result.packet


class Channel(Module):
    """Single shared medium connecting every radio in the simulation."""

    def __init__(self, sim: Simulator, name: str, config: SimulationConfig,
                 rngs: RandomStreams):
        super().__init__(sim, name, parent=None)
        self.config = config
        # world-scoped shared hop state: per-address connection memos and
        # adaptive hop sets live here, so concurrent worlds never see each
        # other's maps (see repro.baseband.hop.HopRegistry)
        self.hop_registry = HopRegistry()
        #: Optional :class:`~repro.sim.capture.TimelineCapture` sink.  Every
        #: hook site guards on ``is not None``, so a world without capture
        #: pays one attribute test and stays byte-identical.
        self.capture = None
        self.radios: list[RfFrontEnd] = []
        # live transmissions per RF channel, keyed by id(tx) for O(1) expiry
        self._active_by_freq: dict[int, dict[int, Transmission]] = {}
        self._pending: dict[tuple[int, int], DecodeResult] = {}
        # per-radio index over _pending keys: abort_reception is O(own keys)
        self._pending_by_radio: dict[int, set[tuple[int, int]]] = {}
        # tuning registry: RF channel -> {id(radio): radio}; following
        # receivers are kept apart (their channel is evaluated on demand)
        self._tuned_by_freq: dict[int, dict[int, RfFrontEnd]] = {}
        self._following: dict[int, RfFrontEnd] = {}
        self._listen_keys: dict[int, int | None] = {}
        noise_rng = rngs.stream("channel.noise")
        if config.noise.burst_avg_len > 1.0:
            self.noise: NoiseModel = GilbertElliottNoise(
                config.noise.ber, config.noise.burst_avg_len, noise_rng
            )
        else:
            self.noise = BerNoise(config.noise.ber, noise_rng)
        self.stage_model = StageErrorModel(config.noise.ber, rngs.stream("channel.stages"))
        # SIR capture profile: linear ACI gains by |carrier offset| and the
        # linear capture ratio.  Infinite rejection gives an exact 0.0 gain,
        # so the degenerate default never visits adjacent buckets at all.
        sir = config.sir
        self._aci_gain = (
            1.0,
            _dbm_to_mw(-sir.aci_rejection_1_db),
            _dbm_to_mw(-sir.aci_rejection_2_db),
        )
        if self._aci_gain[2] > 0.0:
            self._aci_span = 2
        elif self._aci_gain[1] > 0.0:
            self._aci_span = 1
        else:
            self._aci_span = 0
        self._capture_ratio = _dbm_to_mw(sir.capture_threshold_db)
        # static interference floor per RF channel (linear mW), lazily
        # allocated by add_static_interferer
        self._static_mw: list[float] | None = None
        # spatial layer: the per-world topology (None → flat world) and
        # the hot-path flag the resolvers and stage deliveries branch on.
        # A FlatLoss topology keeps _spatial False, so placement alone
        # never moves an outcome — only a lossy model does.
        self._topology: Topology | None = None
        self._spatial = False
        # per-source static interference for the spatial resolver: each
        # entry is (79-float ACI-spread mW array, Position | None); the
        # per-listener floor folds in each source's path gain lazily
        self._static_sources: list[tuple[list[float], Position | None]] = []
        self.transmissions = 0
        self.collisions = 0

    # ------------------------------------------------------------------

    def attach(self, radio: RfFrontEnd) -> None:
        """Register a radio on the medium."""
        if radio in self.radios:
            raise ChannelError(f"radio {radio.path} attached twice")
        radio.attach_index = len(self.radios)
        self.radios.append(radio)
        self._listen_keys[id(radio)] = None

    def listener_retuned(self, radio: RfFrontEnd) -> None:
        """Sync the tuning registry with ``radio``'s current receiver state.

        The RF front-end calls this after every ``rx_on`` / ``rx_retune`` /
        ``rx_off`` transition; the registry is what :meth:`_scan_listeners`
        indexes instead of walking every attached radio.
        """
        rid = id(radio)
        if radio.rx_freq_fn is not None:
            new: int | None = _FOLLOWING
        else:
            new = radio.rx_freq
        old = self._listen_keys.get(rid)
        if new == old:
            return
        if old == _FOLLOWING:
            self._following.pop(rid, None)
        elif old is not None:
            bucket = self._tuned_by_freq.get(old)
            if bucket is not None:
                bucket.pop(rid, None)
        if new == _FOLLOWING:
            self._following[rid] = radio
        elif new is not None:
            self._tuned_by_freq.setdefault(new, {})[rid] = radio
        self._listen_keys[rid] = new

    def abort_reception(self, radio: RfFrontEnd) -> None:
        """A radio powered down mid-lock; drop its pending decodes."""
        keys = self._pending_by_radio.pop(id(radio), None)
        if keys:
            for key in keys:
                self._pending.pop(key, None)

    # ------------------------------------------------------------------
    # Spatial layer
    # ------------------------------------------------------------------

    @property
    def topology(self) -> Topology | None:
        """The installed :class:`~repro.phy.geometry.Topology`, or None."""
        return self._topology

    def set_topology(self, topology: Topology | None) -> None:
        """Install (or remove) the world's spatial topology.

        A lossy topology switches the resolver to per-(transmitter,
        listener) link budgets (``rx_mw = tx_mw × gain(src, dst)``); a
        :class:`~repro.phy.geometry.FlatLoss` topology — or None — keeps
        the flat resolvers, byte-identical to a world that never called
        this.
        """
        self._topology = topology
        self._spatial = topology is not None and topology.is_spatial

    def ensure_topology(self) -> Topology:
        """The installed topology, creating a default log-distance one on
        first use (the auto-install behind ``Device.place``)."""
        if self._topology is None:
            self.set_topology(Topology())
        return self._topology

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------

    def add_static_interferer(self, channels: Iterable[int],
                              power_dbm: float = 0.0,
                              position: Optional[Position] = None) -> None:
        """Park a constant interferer on a set of RF channels.

        Every transmission — including any already in the air — sees
        ``power_dbm`` of interference on each of the given channels (plus
        the ACI-attenuated spill onto their ±1/±2 MHz neighbours when the
        configured rejection is finite) for its whole time on air — the
        dense-deployment model of e.g. a Wi-Fi carrier or a microwave
        oven, and the workload the ``ext_afh`` experiment recovers from.

        ``position`` places the source in the world's topology: spatial
        worlds then attenuate its energy by each listener's path gain.
        Positionless sources (or flat worlds) are heard at configured
        power everywhere.
        """
        channels = list(channels)
        for channel in channels:  # validate before any state mutates
            if not 0 <= channel < 79:
                raise ChannelError(f"RF channel out of range: {channel}")
        power = _dbm_to_mw(power_dbm)
        if self._static_mw is None:
            self._static_mw = [0.0] * 79
        spread = [0.0] * 79
        span = self._aci_span
        for channel in channels:
            for offset in range(-span, span + 1):
                neighbour = channel + offset
                if 0 <= neighbour < 79:
                    spread[neighbour] += power * self._aci_gain[abs(offset)]
        for freq in range(79):
            self._static_mw[freq] += spread[freq]
        self._static_sources.append((spread, position))
        if not self._spatial:
            self._fold_static_into_live(spread)

    def _fold_static_into_live(self, spread: list[float]) -> None:
        """Retroactively charge a just-parked interferer's energy to the
        transmissions already on the air (flat resolvers only — the
        spatial resolver reads the floor lazily per listener).

        Without this, a packet live at switch-on never sees the jammer:
        its ``interference_mw`` was settled at resolve time.
        """
        now = self.sim.now
        cap = self.capture
        capture = self._capture_ratio
        for live in self._active_by_freq.values():
            for tx in live.values():
                if tx.end_ns <= now:  # expiry event not yet fired
                    continue
                floor = spread[tx.freq]
                if floor <= 0.0:
                    continue
                tx.interference_mw += floor
                if tx.power_mw <= tx.interference_mw * capture \
                        and not tx.corrupted:
                    tx.corrupted = True
                    if cap is not None:
                        cap.capture_loss(now, tx)

    def clear_static_interferers(self) -> None:
        """Remove every parked static interferer — the jammer-off phase of
        a recovery scenario.  Transmissions already in the air keep the
        interference they accumulated, so their outcomes stay
        well-defined."""
        self._static_mw = None
        self._static_sources = []

    def transmit(self, radio: RfFrontEnd, freq: int, packet: Packet,
                 uap: int = 0, meta: TxMeta | None = None,
                 power_dbm: float = 0.0) -> Transmission:
        """Put a packet on the air and schedule listener-side stages."""
        if not 0 <= freq < 79:
            raise ChannelError(f"RF channel out of range: {freq}")
        now = self.sim.now
        tx = Transmission(
            radio=radio,
            freq=freq,
            packet=packet,
            start_ns=now,
            duration_ns=packet.duration_ns,
            tx_clk=_whiten_clk(packet, radio, now),
            tx_uap=uap,
            power_mw=1.0 if power_dbm == 0.0 else _dbm_to_mw(power_dbm),
            meta=meta if meta is not None else TxMeta(),
        )
        if self.config.bit_accurate:
            tx.air_bits = encode_packet(packet, uap=tx.tx_uap, clk=tx.tx_clk)
        self.transmissions += 1
        cap = self.capture
        if cap is not None:
            cap.tx_start(now, tx)

        self._resolve(tx, now)

        # Scan for listeners one delta cycle later, so that receivers being
        # retuned/opened by other events at this same instant (e.g. a slave
        # hopping at the slot boundary the master transmits on) are seen in
        # their settled state. Physical timing is unaffected: the sync stage
        # is 68 us away.
        self.sim.schedule_delta(partial(self._scan_listeners, tx))
        self.sim.schedule_abs(now + tx.duration_ns, partial(self._expire, tx))
        return tx

    def _resolve(self, tx: Transmission, now: int) -> None:
        """Admit ``tx`` into the live set through the applicable resolver —
        the single overlap-resolution entry point, shared by the scalar
        :meth:`transmit` path and the SoA slot engine's micro stepping."""
        if self._spatial:
            self._resolve_spatial(tx, now)
        else:
            self._resolve_capture(tx, now)

    def _resolve_capture(self, tx: Transmission, now: int) -> None:
        """Carrier-offset SIR capture resolution for a new transmission.

        Accumulates interference power — the static floor plus every live
        overlapper within the ACI span, attenuated by the per-offset gain —
        onto both sides of each overlap, and marks a transmission corrupted
        once its SIR no longer *exceeds* the capture threshold.  Corruption
        is sticky (interference only accumulates over a packet's lifetime,
        mirroring the binary rule that an overlap during any part of the
        packet destroys it) and is re-read at every staged delivery, so a
        mid-air capture loss still voids a reception whose sync stage
        already fired.

        ``collisions`` counts destructive overlap pairs: incremented once
        per examined pair in which either side is corrupted after the
        update — on the degenerate profile every co-channel pair qualifies
        and adjacent buckets are never visited, making counter, flags and
        event schedule byte-identical to the binary per-channel resolver
        (the capture suite's tests-side oracle).
        """
        cap = self.capture
        interference = self._static_mw[tx.freq] if self._static_mw else 0.0
        capture = self._capture_ratio
        power = tx.power_mw
        corrupted = tx.corrupted
        for offset in range(-self._aci_span, self._aci_span + 1):
            gain = self._aci_gain[abs(offset)]
            if gain <= 0.0:
                continue
            neighbour = tx.freq + offset
            if not 0 <= neighbour < 79:
                continue
            live = self._active_by_freq.get(neighbour)
            if not live:
                continue
            for other in live.values():
                if other.end_ns <= now:  # expiry event not yet fired
                    continue
                interference += other.power_mw * gain
                other.interference_mw += power * gain
                if other.power_mw <= other.interference_mw * capture \
                        and not other.corrupted:
                    other.corrupted = True
                    if cap is not None:
                        cap.capture_loss(now, other)
                if power <= interference * capture:
                    corrupted = True
                if corrupted or other.corrupted:
                    self.collisions += 1
        tx.interference_mw = interference
        if power <= interference * capture:
            corrupted = True
        if corrupted and not tx.corrupted and cap is not None:
            cap.capture_loss(now, tx)
        tx.corrupted = corrupted
        self._active_by_freq.setdefault(tx.freq, {})[id(tx)] = tx

    def _resolve_spatial(self, tx: Transmission, now: int) -> None:
        """Spatial admission: record who overlapped whom, decide nothing.

        With geometry installed, destructiveness is a property of the
        *(transmission, listener)* pair — the same overlap that buries a
        far receiver is harmless 1 m from the wanted transmitter — so
        resolve time only advances mobility to the current cadence epoch
        and cross-records the overlap (``(radio, aci_attenuated_tx_mw)``
        on both sides' ``overlap_mw`` lists).  Each listener's verdict is
        drawn lazily and stickily by :meth:`_corrupted_for` at its staged
        deliveries.

        ``collisions`` counts air-time overlap pairs here (the per-pair
        analogue of the flat resolver's destructive-pair count; with
        geometry a pair's destructiveness is listener-relative, so the
        counter reports exposure rather than damage).
        """
        topo = self._topology
        topo.advance_to(now)
        if tx.overlap_mw is None:
            tx.overlap_mw = []
        power = tx.power_mw
        for offset in range(-self._aci_span, self._aci_span + 1):
            gain = self._aci_gain[abs(offset)]
            if gain <= 0.0:
                continue
            neighbour = tx.freq + offset
            if not 0 <= neighbour < 79:
                continue
            live = self._active_by_freq.get(neighbour)
            if not live:
                continue
            for other in live.values():
                if other.end_ns <= now:  # expiry event not yet fired
                    continue
                if other.overlap_mw is None:
                    other.overlap_mw = []
                other.overlap_mw.append((tx.radio, power * gain))
                tx.overlap_mw.append((other.radio, other.power_mw * gain))
                self.collisions += 1
        self._active_by_freq.setdefault(tx.freq, {})[id(tx)] = tx

    def _static_floor_at(self, freq: int, rx_key) -> float:
        """Per-listener static interference floor (linear mW): each parked
        source attenuated by its path gain to the listener."""
        total = 0.0
        topo = self._topology
        for spread, position in self._static_sources:
            mw = spread[freq]
            if mw > 0.0:
                total += mw * topo.gain_from(position, rx_key)
        return total

    def _corrupted_for(self, tx: Transmission, listener: RfFrontEnd,
                       now: int) -> bool:
        """The per-(transmission, listener) capture verdict of a spatial
        world, evaluated at each staged delivery.  ``now`` is the stage's
        decision time — passed explicitly because the SoA micro-kernel
        runs whole windows with the simulator clock parked at the window
        start, so ``self.sim.now`` would stamp its capture-loss records
        with stale times.

        The listener's wanted power is ``tx.power_mw`` through the
        src→dst path gain; interference is its static floor plus every
        recorded overlapper through *that* overlapper's path gain to this
        listener.  A failed capture is sticky per pair (``tx.corrupt_rx``)
        — interference only accumulates over a packet's lifetime, so a
        pair that loses capture mid-air stays lost, mirroring the flat
        resolvers' sticky ``tx.corrupted`` — and emits a per-pair
        ``capture_loss`` record carrying distance and rx power.
        """
        if tx.corrupted:
            return True
        lid = id(listener)
        corrupt = tx.corrupt_rx
        if corrupt is not None and lid in corrupt:
            return True
        topo = self._topology
        rx_key = listener.topo_key
        wanted = tx.power_mw * topo.gain(tx.radio.topo_key, rx_key)
        interference = self._static_floor_at(tx.freq, rx_key) \
            if self._static_sources else 0.0
        overlaps = tx.overlap_mw
        if overlaps:
            gain = topo.gain
            for radio, mw in overlaps:
                interference += mw * gain(radio.topo_key, rx_key)
        if wanted > interference * self._capture_ratio:
            return False
        if corrupt is None:
            corrupt = tx.corrupt_rx = set()
        corrupt.add(lid)
        cap = self.capture
        if cap is not None:
            sir_db = (round(10.0 * math.log10(wanted / interference), 2)
                      if wanted > 0.0 and interference > 0.0 else None)
            rx_dbm = (round(10.0 * math.log10(wanted), 2)
                      if wanted > 0.0 else None)
            cap.capture_loss(now, tx, sir_db=sir_db,
                             distance_m=topo.distance(tx.radio.topo_key,
                                                      rx_key),
                             rx_dbm=rx_dbm)
        return True

    def _scan_listeners(self, tx: Transmission) -> None:
        fixed = self._tuned_by_freq.get(tx.freq)
        if fixed:
            candidates = list(fixed.values())
            if self._following:
                candidates.extend(self._following.values())
        elif self._following:
            candidates = list(self._following.values())
        else:
            return
        if len(candidates) > 1:
            # registry dicts are in retune order; visiting in attach order
            # keeps stage-event sequence numbers (and so every downstream
            # outcome) identical to the full-radio-walk implementation
            candidates.sort(key=_attach_index)
        delay = self.config.rf.modem_delay_ns
        sync_time = tx.start_ns + delay + SYNC_DECISION_NS
        carrier_sense = self.config.rf.carrier_sense
        receivers = []
        for listener in candidates:
            if listener is tx.radio or not listener.rx_open or listener.tx_busy:
                continue
            if not listener.tuned_to(tx.freq):
                continue
            if carrier_sense:
                listener.carrier_detected(tx)
            receivers.append(listener)
        if not receivers:
            return
        # one event resolves every reception of tx (see module docstring)
        self.sim.schedule_abs(
            sync_time, partial(self._sync_batch, tx, receivers))

    def _expire(self, tx: Transmission) -> None:
        cap = self.capture
        if cap is not None:
            cap.tx_end(self.sim.now, tx)
        live = self._active_by_freq.get(tx.freq)
        if live is not None:
            live.pop(id(tx), None)
        # the sender's TX ends here too: its enable_tx drop belongs at this
        # same (end_ns, 0) instant, right after the expiry
        tx.radio._tx_done()

    # ------------------------------------------------------------------
    # Receive path (staged)
    # ------------------------------------------------------------------

    def _sync_deliver(self, tx: Transmission, listener: RfFrontEnd,
                      result: DecodeResult) -> None:
        """Post-decode half of the sync stage: deliver the decision and
        schedule the header stage when the listener stays locked."""
        matched = result.synced and not tx.corrupted and not (
            self._spatial and self._corrupted_for(tx, listener,
                                                  self.sim.now))
        listener.deliver_sync(tx, matched)

        if tx.packet.ptype is PacketType.ID:
            self._deliver_end(tx, listener, result)
            return
        if not (matched and listener.locked_tx is tx):
            return  # listener declined or sync failed; no further stages
        key = (id(tx), id(listener))
        self._pending[key] = result
        self._pending_by_radio.setdefault(id(listener), set()).add(key)
        delay = self.config.rf.modem_delay_ns
        self.sim.schedule_abs(
            tx.start_ns + delay + HEADER_DECISION_NS,
            partial(self._header_stage, tx, listener))

    def _sync_batch(self, tx: Transmission,
                    receivers: list[RfFrontEnd]) -> None:
        """Resolve every reception of ``tx`` in one event: admit in listener
        order through the sync-time receiver guard, draw all decode
        outcomes (one batched ``decode_packets`` call in bit-accurate
        mode), then deliver in the same order."""
        admitted = []
        for listener in receivers:
            locked = listener.locked_tx
            if not listener.rx_open or not (locked is tx
                                            or listener.tuned_to(tx.freq)):
                if locked is tx:
                    listener.locked_tx = None
            elif locked is None or locked is tx:
                # (a listener locked onto a different packet is skipped)
                admitted.append(listener)
        if not admitted:
            return
        results = self._full_decode_batch(tx, admitted)
        for listener, result in zip(admitted, results):
            self._sync_deliver(tx, listener, result)

    def _pop_pending(self, tx: Transmission,
                     listener: RfFrontEnd) -> DecodeResult | None:
        key = (id(tx), id(listener))
        result = self._pending.pop(key, None)
        if result is not None:
            keys = self._pending_by_radio.get(id(listener))
            if keys is not None:
                keys.discard(key)
        return result

    def _header_stage(self, tx: Transmission, listener: RfFrontEnd) -> None:
        result = self._pending.get((id(tx), id(listener)))
        if result is None or listener.locked_tx is not tx:
            return
        corrupted = tx.corrupted or (
            self._spatial and self._corrupted_for(tx, listener, self.sim.now))
        am_addr = result.packet.am_addr if (result.header_ok and result.packet) else None
        if corrupted:
            am_addr = None
        keep = True
        if listener.listener is not None and hasattr(listener.listener, "on_header"):
            keep = bool(listener.listener.on_header(tx, result.header_ok and not corrupted, am_addr))
        if not keep:
            self._pop_pending(tx, listener)
            listener.locked_tx = None
            return
        delay = self.config.rf.modem_delay_ns
        self.sim.schedule_abs(
            tx.end_ns + delay, partial(self._end_stage, tx, listener))

    def _end_stage(self, tx: Transmission, listener: RfFrontEnd) -> None:
        result = self._pop_pending(tx, listener)
        if result is None or listener.locked_tx is not tx:
            return
        self._deliver_end(tx, listener, result)

    def _deliver_end(self, tx: Transmission, listener: RfFrontEnd,
                     result: DecodeResult) -> None:
        corrupted = tx.corrupted or (
            self._spatial and self._corrupted_for(tx, listener, self.sim.now))
        if corrupted:
            # resolver 'X': whatever the stage draw said, the frame is junk
            result = DecodeResult(synced=result.synced, header_ok=False,
                                  payload_ok=False, packet=None, stage="header")
        reception = Reception(tx=tx, result=result, collided=corrupted,
                              rx_time_ns=self.sim.now)
        listener.deliver_end(reception)

    # ------------------------------------------------------------------
    # Decode-outcome draw (once per transmission/listener pair)
    # ------------------------------------------------------------------

    def _threshold_for(self, packet: Packet) -> int:
        """ID packets are detected by the sliding correlator; framed packets
        use the (possibly stricter, paper-profile) sync threshold."""
        if packet.ptype is PacketType.ID:
            return self.config.link.id_sync_threshold
        return self.config.link.sync_threshold

    @staticmethod
    def _id_result(lap: int, detected: bool) -> DecodeResult:
        """ID-packet decode outcome from its correlator decision (shared
        by the scalar and batch statistical paths, which must stay
        byte-identical)."""
        if not detected:
            return DecodeResult(synced=False, stage="sync")
        return DecodeResult(synced=True, header_ok=True, payload_ok=True,
                            packet=Packet(ptype=PacketType.ID, lap=lap),
                            stage="payload")

    @staticmethod
    def _stage_result(packet: Packet, synced: bool, header_ok: bool,
                      payload_ok: bool) -> DecodeResult:
        """Framed-packet decode outcome from its stage draws (shared by
        the scalar and batch statistical paths)."""
        if not synced:
            return DecodeResult(synced=False, stage="sync")
        if not header_ok:
            return DecodeResult(synced=True, header_ok=False, stage="header")
        result = DecodeResult(synced=True, header_ok=True,
                              payload_ok=payload_ok, packet=packet,
                              stage="payload")
        result.set_header_fields(packet.am_addr, packet.ptype.info.code,
                                 packet.arqn, packet.seqn)
        return result

    def _full_decode(self, tx: Transmission, listener: RfFrontEnd) -> DecodeResult:
        expect = listener.expect
        if expect is None or expect.lap != tx.packet.lap:
            return DecodeResult(synced=False, stage="sync")
        threshold = self._threshold_for(tx.packet)
        if self.config.bit_accurate:
            assert tx.air_bits is not None
            positions = self.noise.error_positions(len(tx.air_bits))
            # no errors drawn (always at BER 0): decode the frame as-is —
            # decode_packet never mutates its input, so skip the copy
            noisy = (flip_bits(tx.air_bits, positions) if len(positions)
                     else tx.air_bits)
            return decode_packet(noisy, expect.lap, tx.tx_uap, tx.tx_clk,
                                 sync_threshold=threshold)
        packet = tx.packet
        if packet.ptype is PacketType.ID:
            return self._id_result(packet.lap,
                                   self.stage_model.sample_sync(threshold))
        # one batched call per framed packet: same draw sequence as the
        # separate sample_sync/sample_header/sample_payload chain
        return self._stage_result(packet, *self.stage_model.sample_stages(
            packet.ptype, len(packet.payload), threshold))

    def _full_decode_batch(self, tx: Transmission,
                           listeners: list[RfFrontEnd]) -> list[DecodeResult]:
        """Decode outcomes for every admitted listener of one transmission.

        Statistical mode draws the whole batch's sync/header/payload chains
        through :meth:`StageErrorModel.sample_stages_batch` (stream- and
        outcome-identical to looping :meth:`_full_decode` per listener,
        which the stage-batch property suite asserts).  Bit-accurate mode
        draws each listener's noise pattern in listener order (identical
        noise-stream consumption), then resolves all noisy frames through
        one :func:`decode_packets` call.  A single listener takes the
        scalar decode outright — same draws, none of the batch
        bookkeeping.
        """
        if len(listeners) == 1:
            return [self._full_decode(tx, listeners[0])]
        if not self.config.bit_accurate:
            return self._stage_draw_batch(tx, listeners)
        assert tx.air_bits is not None
        threshold = self._threshold_for(tx.packet)
        results: list[DecodeResult | None] = [None] * len(listeners)
        frames, laps, slots = [], [], []
        for index, listener in enumerate(listeners):
            expect = listener.expect
            if expect is None or expect.lap != tx.packet.lap:
                results[index] = DecodeResult(synced=False, stage="sync")
                continue
            positions = self.noise.error_positions(len(tx.air_bits))
            frames.append(flip_bits(tx.air_bits, positions) if len(positions)
                          else tx.air_bits)
            laps.append(expect.lap)
            slots.append(index)
        if frames:
            decoded = decode_packets(frames, laps, tx.tx_uap, tx.tx_clk,
                                     sync_threshold=threshold)
            for index, result in zip(slots, decoded):
                results[index] = result
        return results

    def _stage_draw_batch(self, tx: Transmission,
                          listeners: list[RfFrontEnd]) -> list[DecodeResult]:
        """Statistical-mode batch: one access-code screen pass, then the
        matching listeners' stage chains drawn in a single batched call
        (byte-identical draws to looping :meth:`_full_decode`)."""
        packet = tx.packet
        results: list[DecodeResult | None] = [None] * len(listeners)
        drawn: list[int] = []
        for index, listener in enumerate(listeners):
            expect = listener.expect
            if expect is None or expect.lap != packet.lap:
                results[index] = DecodeResult(synced=False, stage="sync")
            else:
                drawn.append(index)
        if not drawn:
            return results
        threshold = self._threshold_for(packet)
        if packet.ptype is PacketType.ID:
            synced = self.stage_model.sample_sync_batch(threshold, len(drawn))
            for index, ok in zip(drawn, synced):
                results[index] = self._id_result(packet.lap, ok)
            return results
        stages = self.stage_model.sample_stages_batch(
            packet.ptype, len(packet.payload), threshold, len(drawn))
        for index, outcome in zip(drawn, stages):
            results[index] = self._stage_result(packet, *outcome)
        return results


def _attach_index(radio: RfFrontEnd) -> int:
    return radio.attach_index


def _whiten_clk(packet: Packet, radio: RfFrontEnd, now_ns: int) -> int:
    """Whitening clock: 0 for FHS (sender/receiver are not yet synchronised
    during page/inquiry — documented simplification), else the sender's
    current clock."""
    if packet.ptype is PacketType.FHS:
        return 0
    return radio.clock.clk(now_ns)
