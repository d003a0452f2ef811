"""The 1-bit ARQ scheme (SEQN/ARQN) of the Bluetooth baseband.

Each direction of an ACL link runs an independent stop-and-wait ARQ:

* the transmitter toggles SEQN on every *new* payload and repeats SEQN on
  retransmissions;
* the receiver acknowledges by piggybacking ARQN=1 on its next packet when
  the last CRC-protected payload was good, ARQN=0 otherwise, and discards
  duplicates (same SEQN twice).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ArqTxState:
    """Transmit half: decides SEQN and reacts to received ARQN."""

    seqn: int = 0
    awaiting_ack: bool = False
    retransmissions: int = 0
    acked_payloads: int = 0

    def next_seqn(self, new_payload: bool) -> int:
        """SEQN to stamp on the outgoing packet."""
        if new_payload and not self.awaiting_ack:
            self.seqn ^= 1
            self.awaiting_ack = True
        return self.seqn

    def on_arqn(self, arqn: int) -> bool:
        """Process a received ARQN; returns True when it acks our payload."""
        if self.awaiting_ack and arqn == 1:
            self.awaiting_ack = False
            self.acked_payloads += 1
            return True
        if self.awaiting_ack:
            self.retransmissions += 1
        return False


@dataclass
class ArqRxState:
    """Receive half: duplicate filtering and ARQN generation."""

    last_seqn: int = field(default=-1)
    arqn: int = 0
    duplicates: int = 0
    accepted: int = 0

    def on_data(self, seqn: int, payload_ok: bool) -> bool:
        """Process a received CRC-protected packet.

        Returns True when the payload is *new* and should be delivered
        upward; updates the ARQN to piggyback on our next transmission.
        """
        if not payload_ok:
            self.arqn = 0
            return False
        self.arqn = 1
        if seqn == self.last_seqn:
            self.duplicates += 1
            return False
        self.last_seqn = seqn
        self.accepted += 1
        return True


@dataclass
class LinkArq:
    """Both ARQ halves for one logical link."""

    tx: ArqTxState = field(default_factory=ArqTxState)
    rx: ArqRxState = field(default_factory=ArqRxState)
