"""Connection state: master polling loop and slave listening loop.

Master side (:class:`ConnectionMaster`): at each master-slot pair it
evaluates, a polling policy picks at most one action — beacon for parked
slaves, eager poll for a slave returning from hold, data or keep-alive
poll — the packet goes out on the channel hopping sequence, and the reply
window opens one slot later.  The loop is event-driven: the master keeps
exactly one pending wake event and, after a pair on which it could not
act, sleeps until the pair the policy names in
:meth:`~repro.link.polling.PollingPolicy.next_pair`.  Every change to the
state the policy reads (a TX-buffer load, a slave joining or leaving, a
sniff/hold/park change, a new policy) pulls the wake forward with
:meth:`ConnectionMaster.wake`, so outcomes are those of evaluating every
pair.  Like a sniffing slave, the master only wakes where it may act.

Slave side (:class:`ConnectionSlave`): in **active** mode the slave opens a
short uncertainty window (default 32.5 µs) at every master slot start and
extends it only when a carrier appears; it drops out of packets addressed
to other slaves after the header (paper Fig. 5). In **sniff** mode it
listens with wide-open windows only at anchor points (Fig. 9/11); in
**hold** it powers the radio down entirely and re-acquires the channel by
continuous listening at expiry (Fig. 12); in **park** it wakes only at
beacon instants.

The 1-bit ARQ (SEQN/ARQN) runs per link in both directions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import units
from repro.baseband.address import BdAddr
from repro.baseband.clock import BtClock
from repro.baseband.hop import HopSelector
from repro.baseband.packets import Packet, PacketType
from repro.errors import ProtocolError
from repro.link.afh import AfhController
from repro.link.arq import LinkArq
from repro.link.buffers import InboundData
from repro.link.hold import HoldSchedule, schedule_hold
from repro.link.piconet import HoldParams, ParkParams, Piconet, SniffParams
from repro.link.polling import PollingPolicy, RoundRobinPolicy, SlotAction
from repro.link.sniff import in_attempt_window, next_attempt_slot, \
    validate as validate_sniff
from repro.link.park import next_beacon_slot, validate as validate_park
from repro.link.states import ConnectionMode, DeviceState
from repro.phy.rf import RxExpect
from repro.phy.transmission import Transmission, TxMeta
from repro.sim.event import EventHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.channel import Reception
    from repro.link.device import BluetoothDevice


def _pairs(slots: int) -> int:
    """Convert a parameter given in time slots to master-slot pairs."""
    return max(1, slots // 2)


def _next_multiple(pair: int, interval: int) -> int:
    """First multiple of ``interval`` >= ``pair``."""
    return pair + -pair % interval


class ConnectionMaster:
    """Master-side connection logic for one piconet."""

    def __init__(self, device: "BluetoothDevice", piconet: Piconet,
                 policy: Optional[PollingPolicy] = None):
        self.device = device
        self.piconet = piconet
        self._policy = policy or RoundRobinPolicy()
        self.arq: dict[int, LinkArq] = {}
        self.hold_schedules: dict[int, HoldSchedule] = {}
        self._resync_needed: set[int] = set()
        self._running = False
        #: the one pending ``_even_slot`` event (None while suspended, or
        #: while the policy names no pair it could ever act on)
        self._wake: Optional[EventHandle] = None
        #: the last pair ``_even_slot`` evaluated
        self._last_pair: Optional[int] = None
        self._beacon_interval_pairs: Optional[int] = None
        self.stats_tx_packets = 0
        self.stats_rx_packets = 0
        # AFH (extension, off by default): the master classifies channels
        # from its reply outcomes and adapts the piconet's hop set
        self.afh: Optional[AfhController] = \
            AfhController(piconet, device.cfg.afh, channel=device.channel) \
            if device.cfg.afh.enabled else None

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin (or resume) the polling loop."""
        if self._running:
            return
        self._running = True
        self.device.set_state(DeviceState.CONNECTION)
        self.device.active_handler = self
        for am_addr in self.piconet.slaves:
            self.arq.setdefault(am_addr, LinkArq())
        self._wake = self.device.sim.schedule_abs(self._next_master_slot(),
                                                  self._even_slot)

    def suspend(self) -> None:
        """Pause the loop (e.g. while paging an additional slave)."""
        self._running = False
        self._cancel_wake()

    def add_slave(self, am_addr: int) -> None:
        """Register ARQ state for a freshly connected slave."""
        self.arq.setdefault(am_addr, LinkArq())
        self.wake()

    @property
    def policy(self) -> PollingPolicy:
        """The slot scheduling policy; replacing it wakes the master."""
        return self._policy

    @policy.setter
    def policy(self, policy: PollingPolicy) -> None:
        self._policy = policy
        self.wake()

    # -- the wake event -------------------------------------------------------

    def wake(self) -> None:
        """Evaluate the policy at the earliest pair not yet evaluated.

        Called on every change to the state the policy reads.

        Same-instant rule: a change made exactly on a pair boundary, at
        delta 0, before the master evaluated that pair is seen by that
        pair's evaluation.  A change at a later delta of that instant, or
        after the pair was evaluated, waits for the next pair.  This keeps
        the order of a master that evaluates every pair, whose event for a
        pair is queued one pair earlier: host calls between run steps and
        events queued more than a pair ahead (LMP ``_at_pair`` changes are
        queued 12 pairs ahead) run before it.
        """
        if not self._running:
            return
        sim = self.device.sim
        clock = self.device.clock
        now = sim.now
        ticks = clock.ticks(now)
        pair = ticks // 4
        if ticks & 3 or sim.delta or pair == self._last_pair \
                or clock.time_at_tick(ticks) != now:
            pair += 1
        self._wake_at(pair)

    def _wake_at(self, pair: Optional[int]) -> None:
        """Make ``pair`` the pending wake unless an earlier one is queued;
        ``None`` leaves the master asleep until the next :meth:`wake`."""
        if pair is None:
            return
        time_ns = self.device.clock.time_at_tick(pair * 4)
        wake = self._wake
        if wake is not None:
            if wake.time_ns <= time_ns:
                return
            wake.cancel()
        self._wake = self.device.sim.schedule_abs(time_ns, self._even_slot)

    def _cancel_wake(self) -> None:
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None

    # -- clock helpers ------------------------------------------------------

    def _next_master_slot(self) -> int:
        return self.device.clock.next_tick_time(self.device.sim.now, modulo=4, residue=0)

    def pair_index(self, now_ns: Optional[int] = None) -> int:
        """Index of the current master-slot pair (one per 1250 µs)."""
        if now_ns is None:
            now_ns = self.device.sim.now
        return self.device.clock.ticks(now_ns) // 4

    # -- scheduling hooks used by the policy ---------------------------------

    def beacon_due(self, pair: int) -> bool:
        """Do parked slaves expect a beacon at this pair?"""
        if self._beacon_interval_pairs is None:
            return False
        return pair % self._beacon_interval_pairs == 0

    def needs_resync(self, am_addr: int) -> bool:
        """Has this slave's hold expired without contact yet?"""
        return am_addr in self._resync_needed

    def next_beacon_pair(self, pair: int) -> Optional[int]:
        """First beacon pair >= ``pair`` (None when nobody is parked)."""
        if self._beacon_interval_pairs is None:
            return None
        return _next_multiple(pair, self._beacon_interval_pairs)

    def resync_poll_due(self, am_addr: int, pair: int) -> bool:
        """Resync polls ride the master's free-running schedule: one poll per
        ``hold_resync_poll_slots``, *not* anchored at the hold expiry. The
        returning slave therefore waits uniformly in [0, interval) — the
        resynchronisation cost that produces the paper's Fig. 12 crossover
        (see DESIGN.md calibration notes)."""
        return pair % self._resync_interval_pairs() == 0

    def next_resync_poll_pair(self, pair: int) -> int:
        """First resync-poll pair >= ``pair``."""
        return _next_multiple(pair, self._resync_interval_pairs())

    def _resync_interval_pairs(self) -> int:
        return _pairs(self.device.cfg.link.hold_resync_poll_slots)

    # -- the slot loop -------------------------------------------------------

    def _even_slot(self) -> None:
        self._wake = None
        if not self._running:
            return
        device = self.device
        pair = self.pair_index()
        self._last_pair = pair
        # the next pair is evaluated whenever this one is not quiet: the
        # radio is still busy, the master acts, or AFH assesses every pair
        if device.rf.rx_locked or device.rf.tx_busy:
            self._wake_at(pair + 1)
            return
        if device.rf.rx_open:
            device.rf.rx_off()
        if self.afh is not None:
            # assess before picking this pair's frequency, so a fresh map
            # applies from this very slot on (the slaves' selectors see it
            # through the shared per-address hop state)
            self.afh.maybe_assess(pair)
        self._expire_holds(pair)
        action = self._policy.choose(self, pair)
        if action is not None or self.afh is not None:
            self._wake_at(pair + 1)
        else:
            self._wake_at(self._policy.next_pair(self, pair))
        if action is not None:
            self._transmit_action(action, pair)

    def _expire_holds(self, pair: int) -> None:
        for am_addr, schedule in list(self.hold_schedules.items()):
            if pair >= schedule.end_slot:
                del self.hold_schedules[am_addr]
                self._resync_needed.add(am_addr)

    def _transmit_action(self, action: SlotAction, pair: int) -> None:
        device = self.device
        clk = device.clock.clk(device.sim.now)
        freq = device.hop_selector.connection(clk)
        cap = device.channel.capture
        if cap is not None:
            cap.hop(device.sim.now, device.path, clk, freq)
        if action.kind == "beacon":
            packet = Packet(ptype=PacketType.NULL, lap=device.addr.lap, am_addr=0)
            device.rf.transmit(freq, packet, uap=device.addr.uap,
                               meta=TxMeta(purpose="beacon"))
            self.stats_tx_packets += 1
            return
        link = self.piconet.slaves.get(action.am_addr)
        if link is None:
            return
        arq = self.arq[action.am_addr]
        if action.kind == "data":
            item = device.tx_buffer_for(action.am_addr).peek()
            if item is None:
                return
            if cap is not None and arq.tx.awaiting_ack:
                # the head payload went unacknowledged: this send repeats it
                cap.arq_retx(device.sim.now, device.path, freq,
                             action.am_addr, arq.tx.seqn)
            packet = Packet(ptype=item.ptype, lap=device.addr.lap,
                            am_addr=action.am_addr,
                            arqn=arq.rx.arqn,
                            seqn=arq.tx.next_seqn(new_payload=True),
                            payload=item.payload,
                            llid=3 if item.is_lmp else 2)
        else:
            packet = Packet(ptype=PacketType.POLL, lap=device.addr.lap,
                            am_addr=action.am_addr, arqn=arq.rx.arqn)
        link.last_poll_slot = pair
        device.rf.transmit(freq, packet, uap=device.addr.uap,
                           meta=TxMeta(purpose=action.kind))
        self.stats_tx_packets += 1
        if self.afh is not None:
            self.afh.note_tx(freq)  # data/POLL both solicit a reply
        reply_offset = packet.ptype.info.slots * units.SLOT_NS
        device.sim.schedule(reply_offset, self._rx_slot)

    def _rx_slot(self) -> None:
        if not self._running or self.device.rf.rx_locked:
            return
        device = self.device
        clk = device.clock.clk(device.sim.now)
        freq = device.hop_selector.connection(clk)
        device.rf.rx_on(freq, RxExpect(device.addr.lap, uap=device.addr.uap))
        device.sim.schedule(device.cfg.link.active_listen_ns, self._rx_close)

    def _rx_close(self) -> None:
        rf = self.device.rf
        if rf.rx_open and not rf.rx_locked:
            rf.rx_off()

    # -- RF callbacks ------------------------------------------------------

    def on_sync(self, tx: Transmission, matched: bool) -> bool:
        return matched

    def on_header(self, tx: Transmission, header_ok: bool, am_addr: Optional[int]) -> bool:
        if not header_ok:
            self.device.rf.rx_off()
            return False
        return True

    def on_reception(self, reception: "Reception") -> None:
        result = reception.result
        if not result.header_ok or result.header_am is None:
            if not self.device.rf.rx_locked and self.device.rf.rx_open:
                self.device.rf.rx_off()
            return
        am_addr = result.header_am
        link = self.piconet.slaves.get(am_addr)
        if link is None:
            return
        arq = self.arq[am_addr]
        self.stats_rx_packets += 1
        if self.afh is not None:
            self.afh.note_reply()
        # the reply (even a NULL) proves the slave is back on the channel;
        # do not touch the mode if a *new* hold has already been scheduled
        # (the reply may have been in flight when it was set up)
        if am_addr in self._resync_needed:
            self._resync_needed.discard(am_addr)
            if link.mode is ConnectionMode.HOLD \
                    and am_addr not in self.hold_schedules:
                link.mode = ConnectionMode.ACTIVE
                link.hold = None
        # ARQN acknowledges the head of our queue
        if result.header_arqn is not None and arq.tx.on_arqn(result.header_arqn):
            self.device.tx_buffer_for(am_addr).pop()
        # payload processing
        packet = result.packet
        if packet is not None and packet.ptype.is_data:
            accept = arq.rx.on_data(result.header_seqn or 0, result.payload_ok)
            if accept and result.payload_ok:
                self._deliver(am_addr, packet)
        elif result.header_type is not None and not result.payload_ok \
                and result.header_type not in (0, 1):
            arq.rx.on_data(result.header_seqn or 0, False)
        if self.device.rf.rx_open and not self.device.rf.rx_locked:
            self.device.rf.rx_off()

    def _deliver(self, am_addr: int, packet: Packet) -> None:
        item = InboundData(src_am_addr=am_addr, payload=packet.payload,
                           received_ns=self.device.sim.now,
                           is_lmp=packet.llid == 3)
        if item.is_lmp:
            self.device.lm.on_rx(am_addr, packet.payload)
        else:
            self.device.rx_buffer.load(item)

    # ------------------------------------------------------------------
    # Mode control (driven by the Link Manager or experiments)
    # ------------------------------------------------------------------

    def set_sniff(self, am_addr: int, params: SniffParams) -> None:
        """Put a slave's link into sniff mode (master's view)."""
        validate_sniff(params)
        link = self._link(am_addr)
        link.mode = ConnectionMode.SNIFF
        link.sniff = SniffParams(
            t_sniff_slots=_pairs(params.t_sniff_slots),
            n_attempt_slots=params.n_attempt_slots,
            d_sniff_slots=_pairs(params.d_sniff_slots) if params.d_sniff_slots else 0,
        )
        self.wake()

    def exit_sniff(self, am_addr: int) -> None:
        """Return a sniffing slave to active mode (master's view)."""
        link = self._link(am_addr)
        link.mode = ConnectionMode.ACTIVE
        link.sniff = None
        self.wake()

    def set_hold(self, am_addr: int, params: HoldParams) -> None:
        """Suspend a slave's link for ``params.hold_slots`` (master's view)."""
        link = self._link(am_addr)
        link.mode = ConnectionMode.HOLD
        link.hold = params
        self.hold_schedules[am_addr] = schedule_hold(self.pair_index(), params)
        self.wake()

    def park(self, am_addr: int, params: ParkParams) -> None:
        """Park a slave, freeing its AM_ADDR (master's view)."""
        validate_park(params)
        self.piconet.park_slave(am_addr, params)
        self.arq.pop(am_addr, None)
        pairs = _pairs(params.beacon_interval_slots)
        if self._beacon_interval_pairs is None:
            self._beacon_interval_pairs = pairs
        else:
            self._beacon_interval_pairs = min(self._beacon_interval_pairs, pairs)
        self.wake()

    def unpark(self, pm_addr: int) -> int:
        """Re-activate a parked slave; returns its new AM_ADDR."""
        link = self.piconet.unpark_slave(pm_addr)
        self.arq[link.am_addr] = LinkArq()
        if not self.piconet.parked:
            self._beacon_interval_pairs = None
        self.wake()
        return link.am_addr

    def detach(self, am_addr: int) -> None:
        """Drop a slave from the piconet (master's view)."""
        self.piconet.remove_slave(am_addr)
        self.arq.pop(am_addr, None)
        self.hold_schedules.pop(am_addr, None)
        self._resync_needed.discard(am_addr)
        self.wake()

    def _link(self, am_addr: int):
        link = self.piconet.slaves.get(am_addr)
        if link is None:
            raise ProtocolError(f"no slave with AM_ADDR {am_addr}")
        return link


class ConnectionSlave:
    """Slave-side connection logic (active / sniff / hold / park modes)."""

    def __init__(self, device: "BluetoothDevice", master_addr: BdAddr,
                 am_addr: int, piconet_clock: BtClock):
        self.device = device
        self.master_addr = master_addr
        self.am_addr = am_addr
        self.clock = piconet_clock
        self.selector = HopSelector(master_addr.hop_address,
                                    device.hop_registry)
        self.arq = LinkArq()
        self.mode = ConnectionMode.ACTIVE
        self.sniff_params: Optional[SniffParams] = None  # in pair units
        self.park_params: Optional[ParkParams] = None
        self.pm_addr = 0
        self._hold_end_pair: Optional[int] = None
        self._resyncing = False
        self._running = False
        self.stats_rx_packets = 0
        self.stats_tx_packets = 0

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin the listening loop."""
        self._running = True
        self.device.set_state(DeviceState.CONNECTION)
        self.device.active_handler = self
        self.device.sim.schedule_abs(self._next_master_slot(), self._master_slot)

    def stop(self) -> None:
        """Detach: stop listening and return to standby."""
        self._running = False
        if self.device.rf.rx_open:
            self.device.rf.rx_off()
        self.device.set_state(DeviceState.STANDBY)
        self.device.active_handler = None

    def _next_master_slot(self) -> int:
        return self.clock.next_tick_time(self.device.sim.now, modulo=4, residue=0)

    def pair_index(self, now_ns: Optional[int] = None) -> int:
        """Current master-slot pair on the piconet clock."""
        if now_ns is None:
            now_ns = self.device.sim.now
        return self.clock.ticks(now_ns) // 4

    # -- the listening loop --------------------------------------------------

    def _master_slot(self) -> None:
        if not self._running:
            return
        device = self.device
        sim = device.sim
        pair = self.pair_index()

        if self.mode is ConnectionMode.HOLD:
            if self._hold_end_pair is not None and pair < self._hold_end_pair:
                sim.schedule_abs(self.clock.time_at_tick(self._hold_end_pair * 4),
                                 self._master_slot)
                return
            if not self._resyncing:
                self._begin_resync()
            # while resyncing the receiver stays on; nothing to schedule here

        next_pair = self._next_listen_pair(pair + 1)
        sim.schedule_abs(self.clock.time_at_tick(next_pair * 4), self._master_slot)

        if self.mode is ConnectionMode.HOLD:
            return
        if device.rf.rx_locked or device.rf.tx_busy:
            return
        if not self._should_listen(pair):
            return
        clk = self.clock.clk(sim.now)
        freq = self.selector.connection(clk)
        if device.rf.rx_open:
            device.rf.rx_retune(freq)
        else:
            device.rf.rx_on(freq, RxExpect(self.master_addr.lap,
                                           uap=self.master_addr.uap))
        window = self._listen_window_ns(pair)
        if window is not None:
            sim.schedule(window, self._rx_close)

    def _should_listen(self, pair: int) -> bool:
        if self.mode is ConnectionMode.ACTIVE:
            return True
        if self.mode is ConnectionMode.SNIFF and self.sniff_params is not None:
            return in_attempt_window(pair, self.sniff_params)
        if self.mode is ConnectionMode.PARK and self.park_params is not None:
            return pair % _pairs(self.park_params.beacon_interval_slots) == 0
        return False

    def _next_listen_pair(self, from_pair: int) -> int:
        if self.mode is ConnectionMode.SNIFF and self.sniff_params is not None:
            return next_attempt_slot(from_pair, self.sniff_params)
        if self.mode is ConnectionMode.PARK and self.park_params is not None:
            return next_beacon_slot(from_pair, ParkParams(
                beacon_interval_slots=_pairs(self.park_params.beacon_interval_slots),
                pm_addr=self.park_params.pm_addr))
        return from_pair

    def _listen_window_ns(self, pair: int) -> Optional[int]:
        if self.mode is ConnectionMode.SNIFF:
            # wide-open attempt window: the slave must re-acquire sync
            return units.SLOT_NS
        return self.device.cfg.link.active_listen_ns

    def _rx_close(self) -> None:
        rf = self.device.rf
        if rf.rx_open and not rf.rx_locked:
            rf.rx_off()

    # -- hold resynchronisation ----------------------------------------------

    def _begin_resync(self) -> None:
        """Listen continuously, following the channel hopping sequence,
        until any master transmission is caught (paper: the slave 'must
        resynchronize' after hold)."""
        self._resyncing = True
        device = self.device
        device.rf.rx_on_follow(
            lambda: self.selector.connection(self.clock.clk(device.sim.now)),
            RxExpect(self.master_addr.lap, uap=self.master_addr.uap))

    def _end_resync(self) -> None:
        self._resyncing = False
        self._hold_end_pair = None
        self.mode = ConnectionMode.ACTIVE

    # -- RF callbacks ------------------------------------------------------

    def on_sync(self, tx: Transmission, matched: bool) -> bool:
        if not matched and not self._resyncing:
            self.device.rf.rx_off()
        return matched

    def on_header(self, tx: Transmission, header_ok: bool, am_addr: Optional[int]) -> bool:
        """Drop out of packets addressed to other slaves (paper Fig. 5)."""
        keep = header_ok and (am_addr == self.am_addr or am_addr == 0)
        if not keep and not self._resyncing:
            self.device.rf.rx_off()
        return keep

    def on_reception(self, reception: "Reception") -> None:
        result = reception.result
        device = self.device
        if not result.header_ok:
            if device.rf.rx_open and not device.rf.rx_locked and not self._resyncing:
                device.rf.rx_off()
            return
        addressed = result.header_am == self.am_addr
        broadcast = result.header_am == 0
        if not (addressed or broadcast):
            return
        self.stats_rx_packets += 1
        if self._resyncing:
            self._end_resync()
        if addressed:
            if result.header_arqn is not None and self.arq.tx.on_arqn(result.header_arqn):
                device.tx_buffer_for(0).pop()
            packet = result.packet
            if packet is not None and packet.ptype.is_data:
                accept = self.arq.rx.on_data(result.header_seqn or 0, result.payload_ok)
                if accept and result.payload_ok:
                    self._deliver(packet)
            elif result.header_type is not None and not result.payload_ok \
                    and result.header_type not in (0, 1):
                self.arq.rx.on_data(result.header_seqn or 0, False)
            # every addressed packet except NULL solicits a reply
            if result.header_type != 0:  # 0 == NULL
                slots = result.packet.ptype.info.slots if result.packet else 1
                delay = device.cfg.rf.modem_delay_ns
                reply_at = reception.tx.start_ns + delay + slots * units.SLOT_NS
                device.sim.schedule_abs(reply_at, self._reply)
        if device.rf.rx_open and not device.rf.rx_locked:
            device.rf.rx_off()

    def _deliver(self, packet: Packet) -> None:
        item = InboundData(src_am_addr=self.am_addr, payload=packet.payload,
                           received_ns=self.device.sim.now,
                           is_lmp=packet.llid == 3)
        if item.is_lmp:
            self.device.lm.on_rx(0, packet.payload)
        else:
            self.device.rx_buffer.load(item)

    def _reply(self) -> None:
        if not self._running:
            return
        device = self.device
        if device.rf.tx_busy:
            return
        if device.rf.rx_open:
            device.rf.rx_off()
        clk = self.clock.clk(device.sim.now)
        freq = self.selector.connection(clk)
        item = device.tx_buffer_for(0).peek()
        if item is not None:
            cap = device.channel.capture
            if cap is not None and self.arq.tx.awaiting_ack:
                cap.arq_retx(device.sim.now, device.path, freq,
                             self.am_addr, self.arq.tx.seqn)
            packet = Packet(ptype=item.ptype, lap=self.master_addr.lap,
                            am_addr=self.am_addr,
                            arqn=self.arq.rx.arqn,
                            seqn=self.arq.tx.next_seqn(new_payload=True),
                            payload=item.payload,
                            llid=3 if item.is_lmp else 2)
        else:
            packet = Packet(ptype=PacketType.NULL, lap=self.master_addr.lap,
                            am_addr=self.am_addr, arqn=self.arq.rx.arqn)
        device.rf.transmit(freq, packet, uap=self.master_addr.uap,
                           meta=TxMeta(purpose="slave_reply"))
        self.stats_tx_packets += 1

    # ------------------------------------------------------------------
    # Mode control (driven by the Link Manager or experiments)
    # ------------------------------------------------------------------

    def enter_sniff(self, params: SniffParams) -> None:
        """Switch to sniff mode (paper's Enable_sniff_mode)."""
        validate_sniff(params)
        self.mode = ConnectionMode.SNIFF
        self.sniff_params = SniffParams(
            t_sniff_slots=_pairs(params.t_sniff_slots),
            n_attempt_slots=params.n_attempt_slots,
            d_sniff_slots=_pairs(params.d_sniff_slots) if params.d_sniff_slots else 0,
        )

    def exit_sniff(self) -> None:
        """Return to active mode."""
        self.mode = ConnectionMode.ACTIVE
        self.sniff_params = None

    def enter_hold(self, params: HoldParams) -> None:
        """Switch to hold mode (paper's Enable_hold_mode): radio fully off
        until the negotiated time elapses."""
        self.mode = ConnectionMode.HOLD
        self._hold_end_pair = self.pair_index() + 1 + _pairs(params.hold_slots)
        self._resyncing = False
        if self.device.rf.rx_open:
            self.device.rf.rx_off()

    def enter_park(self, params: ParkParams) -> None:
        """Switch to park mode (paper's Enable_park_mode)."""
        validate_park(params)
        self.mode = ConnectionMode.PARK
        self.park_params = params
        self.pm_addr = params.pm_addr

    def unpark(self, am_addr: int) -> None:
        """Return from park under a fresh AM_ADDR."""
        self.mode = ConnectionMode.ACTIVE
        self.park_params = None
        self.am_addr = am_addr
        self.pm_addr = 0
