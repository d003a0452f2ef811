"""RF front-end: the enable_tx_RF / enable_rx_RF timing model.

The paper's Figs. 5 and 9 are waveforms of exactly these two signals. The
front-end does no signal processing itself — it models *when* the radio is
powered, delegates decoding to the channel, and forwards receptions to its
listener (the link controller).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.baseband.clock import BtClock
from repro.errors import ChannelError
from repro.sim.module import Module
from repro.sim.signal import Signal
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.phy.channel import Channel, Reception
    from repro.phy.transmission import Transmission


class RxExpect:
    """What the receiver is configured to detect.

    Attributes:
        lap: LAP of the expected access code (CAC/DAC/GIAC).
        uap: UAP used for HEC/CRC checking of the expected sender.
        clk: callable returning the clock value to un-whiten with.
    """

    __slots__ = ("lap", "uap", "clk")

    def __init__(self, lap: int, uap: int = 0, clk: Optional[Callable[[], int]] = None):
        self.lap = lap
        self.uap = uap
        self.clk = clk if clk is not None else (lambda: 0)


class RfFrontEnd(Module):
    """Half-duplex radio with explicit enable signals.

    The owner (link controller) drives :meth:`rx_on` / :meth:`rx_off` /
    :meth:`transmit` and receives callbacks:

    * ``listener.on_sync(tx, matched)`` at the sync-word decision point;
    * ``listener.on_reception(reception)`` at packet end (only when locked).
    """

    def __init__(self, sim: Simulator, name: str, parent: Module,
                 channel: "Channel", clock: BtClock):
        super().__init__(sim, name, parent)
        self.channel = channel
        self.clock = clock
        self.enable_tx: Signal[bool] = self.signal("enable_tx_rf", False)
        self.enable_rx: Signal[bool] = self.signal("enable_rx_rf", False)
        self.rx_freq: Optional[int] = None
        self.rx_freq_fn: Optional[Callable[[], int]] = None
        self.expect: Optional[RxExpect] = None
        self.locked_tx: Optional["Transmission"] = None
        self.listener = None  # set by the link controller
        self.attach_index = -1  # assigned by Channel.attach
        # spatial-layer identity: the Topology key this radio's position
        # is registered under (devices set their BdAddr; None = unplaced,
        # which the topology maps to unit gain)
        self.topo_key = None
        self._tx_until_ns = -1
        channel.attach(self)

    # ------------------------------------------------------------------
    # Receiver control
    # ------------------------------------------------------------------

    @property
    def rx_open(self) -> bool:
        """True while the receiver is powered and tuned."""
        return self.rx_freq is not None or self.rx_freq_fn is not None

    def tuned_to(self, freq: int) -> bool:
        """Is the (open) receiver currently tuned to ``freq``?

        Frequency-following receivers evaluate their hop function at call
        time, so a continuous listen tracks the hop sequence without per-
        slot retune events.
        """
        if self.rx_freq_fn is not None:
            return self.rx_freq_fn() == freq
        return self.rx_freq == freq

    @property
    def rx_locked(self) -> bool:
        """True while locked onto an incoming packet."""
        return self.locked_tx is not None

    @property
    def tx_busy(self) -> bool:
        """True while the transmitter is on air."""
        return self.sim.now < self._tx_until_ns

    def rx_on(self, freq: int, expect: RxExpect) -> None:
        """Power the receiver, tuned to ``freq``, expecting ``expect``."""
        self.rx_freq = freq
        self.rx_freq_fn = None
        self.expect = expect
        self.channel.listener_retuned(self)
        self.enable_rx.write(True)

    def rx_on_follow(self, freq_fn: Callable[[], int], expect: RxExpect) -> None:
        """Power the receiver in frequency-following mode: it is considered
        tuned to ``freq_fn()`` (evaluated on demand), so a continuous listen
        tracks a hop sequence exactly — used by scan states, the new-
        connection wait and hold resynchronisation, which the paper draws
        as 'RF receiver always active'."""
        self.rx_freq = None
        self.rx_freq_fn = freq_fn
        self.expect = expect
        self.channel.listener_retuned(self)
        self.enable_rx.write(True)

    def rx_retune(self, freq: int, expect: Optional[RxExpect] = None) -> None:
        """Change frequency without an off/on glitch (no effect if locked)."""
        if self.rx_locked:
            return
        self.rx_freq = freq
        if expect is not None:
            self.expect = expect
        self.channel.listener_retuned(self)

    def rx_off(self) -> None:
        """Power the receiver down (aborts any in-progress lock)."""
        if self.rx_locked:
            self.channel.abort_reception(self)
        self.rx_freq = None
        self.rx_freq_fn = None
        self.locked_tx = None
        self.channel.listener_retuned(self)
        self.enable_rx.write(False)

    # ------------------------------------------------------------------
    # Transmitter control
    # ------------------------------------------------------------------

    def transmit(self, freq: int, packet, uap: int = 0, meta=None,
                 power_dbm: float = 0.0) -> "Transmission":
        """Send ``packet`` on ``freq`` now. The radio must not be mid-TX.

        ``uap`` initialises the HEC/CRC of the frame (the UAP of the device
        whose access code the packet is sent under).  ``power_dbm`` feeds
        the channel's SIR capture resolver (all Bluetooth class-2 radios
        transmit at the same 0 dBm default, so links never specify it; the
        capture test-benches do).
        """
        if self.tx_busy:
            raise ChannelError(f"{self.path}: transmit while already transmitting")
        tx = self.channel.transmit(self, freq, packet, uap=uap, meta=meta,
                                   power_dbm=power_dbm)
        self._tx_until_ns = tx.end_ns
        self.enable_tx.write(True)
        return tx

    def _tx_done(self) -> None:
        """Transmission end, called by the channel's expiry event."""
        if not self.tx_busy:
            self.enable_tx.write(False)

    # ------------------------------------------------------------------
    # Channel-side hooks
    # ------------------------------------------------------------------

    def carrier_detected(self, tx: "Transmission") -> None:
        """Energy appeared on the tuned frequency (keeps the window open
        until the sync decision; the link controller's window-close handlers
        check :attr:`rx_locked` / carrier before powering down)."""
        # Lock provisionally; the sync stage decides whether to keep it.
        if self.locked_tx is None:
            self.locked_tx = tx

    def deliver_sync(self, tx: "Transmission", matched: bool) -> None:
        """Sync-word decision point."""
        keep = False
        if self.listener is not None:
            keep = bool(self.listener.on_sync(tx, matched))
        if matched and keep:
            self.locked_tx = tx
        else:
            if self.locked_tx is tx:
                self.locked_tx = None

    def deliver_end(self, reception: "Reception") -> None:
        """Full-packet delivery (only when locked on that transmission)."""
        if self.locked_tx is reception.tx:
            self.locked_tx = None
        if self.listener is not None:
            self.listener.on_reception(reception)
