"""The complete Bluetooth device module.

Composes the paper's Fig. 3 architecture: native CLOCK, HOP_FREQ selector,
RF front-end with its enable signals, TX/RX buffers, the link-controller
procedures (inquiry/page/scan/connection) and the Link Manager. A device is
a :class:`~repro.sim.module.Module`, so all its signals carry hierarchical
names and can be traced to VCD.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro import units
from repro.baseband.address import BdAddr
from repro.baseband.clock import BtClock
from repro.baseband.hop import HopSelector
from repro.baseband.packets import PacketType
from repro.config import SimulationConfig
from repro.errors import ProtocolError
from repro.link.buffers import OutboundData, RxBuffer, TxBuffer
from repro.link.connection import ConnectionMaster, ConnectionSlave
from repro.link.inquiry import InquiryProcedure, InquiryResult, InquiryScanProcedure
from repro.link.page import PageProcedure, PageResult, PageScanProcedure, PageTarget
from repro.link.piconet import Piconet
from repro.link.states import DeviceState
from repro.phy.rf import RfFrontEnd
from repro.sim.module import Module
from repro.sim.rng import RandomStreams
from repro.sim.signal import Signal
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.channel import Channel, Reception
    from repro.phy.transmission import Transmission


class BluetoothDevice(Module):
    """One Bluetooth unit: radio + link controller + link manager.

    Attributes:
        addr: the device's BD_ADDR.
        clock: free-running native clock CLKN (random phase at power-up).
        rf: RF front-end (owns enable_tx_rf / enable_rx_rf signals).
        hop_selector: hop kernel bound to this device's address (used as
            CAC selector when the device is master).
        sig_state: traced signal carrying the link-controller state name.
        piconet: membership table (master role only).
        connection_master / connection_slave: active connection logic.
    """

    def __init__(self, sim: Simulator, name: str, channel: "Channel",
                 config: SimulationConfig, rngs: RandomStreams,
                 addr: Optional[BdAddr] = None,
                 clock_phase_ns: Optional[int] = None):
        super().__init__(sim, name, parent=None)
        self.cfg = config
        self._rngs = rngs.spawn(f"device.{name}")
        if addr is None:
            addr = BdAddr.random(self._rngs.stream("addr"))
        self.addr = addr
        if clock_phase_ns is None:
            clock_phase_ns = int(self._rngs.stream("clock_phase")
                                 .integers(0, units.SLOT_PAIR_NS))
        # Devices power up with an arbitrary 28-bit CLKN value; bits 16-12
        # drive the scan frequency, so this randomness is what makes train
        # alignment a coin flip (and the paper's 1556-slot inquiry mean).
        initial_clkn = int(self._rngs.stream("clkn_init").integers(0, units.CLKN_WRAP))
        self.clock = BtClock(phase_ns=clock_phase_ns, offset_ticks=initial_clkn)
        self.channel = channel
        # shared per-address hop state (memos, AFH maps) is scoped to the
        # world this device lives in — the channel owns the registry
        self.hop_registry = channel.hop_registry
        self.hop_selector = HopSelector(addr.hop_address, self.hop_registry)
        self.rf = RfFrontEnd(sim, "rf", self, channel, self.clock)
        self.rf.listener = self
        self.rf.topo_key = addr  # spatial layer: positions key on BD_ADDR
        self.sig_state: Signal[str] = self.signal("state", DeviceState.STANDBY.value)
        self.state = DeviceState.STANDBY

        self.rx_buffer = RxBuffer()
        self._tx_buffers: dict[int, TxBuffer] = {}
        self.active_handler = None

        self.piconet: Optional[Piconet] = None
        self.connection_master: Optional[ConnectionMaster] = None
        self.connection_slave: Optional[ConnectionSlave] = None
        self._procedure = None

        from repro.lm.lmp import LinkManager  # deferred: import cycle
        self.lm = LinkManager(self)

    # ------------------------------------------------------------------
    # Identity / utility
    # ------------------------------------------------------------------

    @property
    def uap(self) -> int:
        """UAP of this device's address (HEC/CRC init for its access code)."""
        return self.addr.uap

    def rng(self, stream_name: str) -> np.random.Generator:
        """A named random stream scoped to this device."""
        return self._rngs.stream(stream_name)

    def place(self, xy):
        """Place this device at ``xy`` (metres) in the world's topology,
        installing a default log-distance topology on first use.  Returns
        the stored :class:`~repro.phy.geometry.Position`."""
        return self.channel.ensure_topology().place(self.addr, xy)

    @property
    def position(self):
        """This device's registered position, or None when unplaced (or
        the world has no topology)."""
        topology = self.channel.topology
        return None if topology is None else topology.position_of(self.addr)

    def set_state(self, state: DeviceState) -> None:
        """Record a link-controller state change (traced)."""
        self.state = state
        self.sig_state.write(state.value)

    # ------------------------------------------------------------------
    # Buffers
    # ------------------------------------------------------------------

    def tx_buffer_for(self, am_addr: int) -> TxBuffer:
        """The outbound buffer toward a link (slaves use am_addr=0)."""
        buffer = self._tx_buffers.get(am_addr)
        if buffer is None:
            buffer = TxBuffer()
            self._tx_buffers[am_addr] = buffer
        return buffer

    def enqueue_data(self, am_addr: int, payload: bytes,
                     ptype: PacketType = PacketType.DM1,
                     is_lmp: bool = False) -> bool:
        """Queue a payload for transmission on a link.

        The payload must fit the chosen packet type (L2CAP segmentation is
        the host's job in this model); oversized payloads raise immediately
        rather than failing at transmit time.
        """
        if not ptype.is_data:
            raise ProtocolError(f"{ptype.value} cannot carry user data")
        if len(payload) > ptype.info.max_payload:
            raise ProtocolError(
                f"payload of {len(payload)}B exceeds {ptype.value}'s "
                f"{ptype.info.max_payload}B; pick a larger type or segment")
        item = OutboundData(payload=payload, ptype=ptype,
                            enqueued_ns=self.sim.now, is_lmp=is_lmp)
        loaded = self.tx_buffer_for(am_addr).load(item)
        if loaded and self.connection_master is not None:
            self.connection_master.wake()  # the policy may serve it now
        return loaded

    # ------------------------------------------------------------------
    # Procedures (host-facing)
    # ------------------------------------------------------------------

    def start_inquiry(self, timeout_slots: Optional[int] = None,
                      num_responses: int = 1,
                      on_complete: Optional[Callable[[InquiryResult], None]] = None,
                      ) -> InquiryProcedure:
        """Start discovering devices (enters the inquiry state)."""
        self._require_idle()
        procedure = InquiryProcedure(self, timeout_slots=timeout_slots,
                                     num_responses=num_responses,
                                     on_complete=on_complete)
        self._procedure = procedure
        procedure.start()
        return procedure

    def start_inquiry_scan(self, on_responded: Optional[Callable[[], None]] = None,
                           ) -> InquiryScanProcedure:
        """Become discoverable (enters inquiry scan, receiver always on)."""
        self._require_idle()
        procedure = InquiryScanProcedure(self, on_responded=on_responded)
        self._procedure = procedure
        procedure.start()
        return procedure

    def start_page(self, target: PageTarget,
                   am_addr: Optional[int] = None,
                   timeout_slots: Optional[int] = None,
                   on_complete: Optional[Callable[[PageResult], None]] = None,
                   ) -> PageProcedure:
        """Page ``target`` into this device's piconet (master role)."""
        if self.connection_slave is not None:
            raise ProtocolError("a slave cannot page (single-role model)")
        if self.piconet is None:
            self.piconet = Piconet(self.addr, registry=self.hop_registry)
        if am_addr is None:
            am_addr = self.piconet.allocate_am_addr()
        if self.connection_master is not None:
            self.connection_master.suspend()

        def _wrap(result: PageResult) -> None:
            self._procedure = None
            if result.success:
                assert self.piconet is not None
                self.piconet.add_slave(target.addr, am_addr)
                if self.connection_master is None:
                    self.connection_master = ConnectionMaster(self, self.piconet)
                self.connection_master.add_slave(am_addr)
                self.connection_master.start()
            elif self.connection_master is not None and self.piconet.slaves:
                self.connection_master.start()
            if on_complete is not None:
                on_complete(result)

        procedure = PageProcedure(self, target, am_addr=am_addr,
                                  timeout_slots=timeout_slots, on_complete=_wrap)
        self._procedure = procedure
        procedure.start()
        return procedure

    def start_page_scan(self, on_complete: Optional[Callable[[bool], None]] = None,
                        ) -> PageScanProcedure:
        """Wait to be paged (enters page scan, receiver always on)."""
        self._require_idle()

        def _wrap(success: bool) -> None:
            self._procedure = None
            if success:
                assert procedure.master_addr is not None
                assert procedure.piconet_clock is not None
                self.connection_slave = ConnectionSlave(
                    self, procedure.master_addr, procedure.am_addr,
                    procedure.piconet_clock)
                self.connection_slave.start()
            if on_complete is not None:
                on_complete(success)

        procedure = PageScanProcedure(self, on_complete=_wrap)
        self._procedure = procedure
        procedure.start()
        return procedure

    def stop_procedure(self) -> None:
        """Abort whatever procedure is running (detach/reset)."""
        if self._procedure is not None:
            self._procedure.stop()
            self._procedure = None
        self.set_state(DeviceState.STANDBY)
        self.active_handler = None
        if self.rf.rx_open:
            self.rf.rx_off()

    def detach(self) -> None:
        """Paper's Enable_detach_reset: drop all links, return to standby."""
        self.stop_procedure()
        if self.connection_slave is not None:
            self.connection_slave.stop()
            self.connection_slave = None
        if self.connection_master is not None:
            self.connection_master.suspend()
            self.connection_master = None
            self.piconet = None

    def _require_idle(self) -> None:
        if self.state is not DeviceState.STANDBY:
            raise ProtocolError(
                f"{self.basename}: cannot start a procedure in state {self.state.value}"
            )

    # ------------------------------------------------------------------
    # RF listener interface (delegates to the active handler)
    # ------------------------------------------------------------------

    def on_sync(self, tx: "Transmission", matched: bool) -> bool:
        if self.active_handler is not None:
            return self.active_handler.on_sync(tx, matched)
        return False

    def on_header(self, tx: "Transmission", header_ok: bool,
                  am_addr: Optional[int]) -> bool:
        if self.active_handler is not None and hasattr(self.active_handler, "on_header"):
            return self.active_handler.on_header(tx, header_ok, am_addr)
        return header_ok

    def on_reception(self, reception: "Reception") -> None:
        if self.active_handler is not None:
            self.active_handler.on_reception(reception)
