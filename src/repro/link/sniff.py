"""Sniff-mode helpers (paper section 3.2, Figs. 9 and 11).

In sniff mode a slave only listens at periodic *anchor points* spaced
``t_sniff_slots`` apart; at each anchor it listens for ``n_attempt_slots``
master slots with a wide-open receiver (it must re-acquire synchronisation,
so no narrow uncertainty window applies). The master defers traffic for a
sniffing slave to its anchors.
"""

from __future__ import annotations

from repro.link.piconet import SniffParams


def is_anchor_slot(slot_index: int, params: SniffParams) -> bool:
    """Is piconet (even-)slot ``slot_index`` an anchor point?

    ``slot_index`` counts master TX slots (i.e. CLK >> 2).
    """
    return (slot_index - params.d_sniff_slots) % params.t_sniff_slots == 0

def in_attempt_window(slot_index: int, params: SniffParams) -> bool:
    """Is ``slot_index`` within the N_attempt window of some anchor?"""
    delta = (slot_index - params.d_sniff_slots) % params.t_sniff_slots
    return delta < params.n_attempt_slots


def next_attempt_slot(slot_index: int, params: SniffParams) -> int:
    """First slot index >= ``slot_index`` inside an N_attempt window."""
    delta = (slot_index - params.d_sniff_slots) % params.t_sniff_slots
    if delta < params.n_attempt_slots:
        return slot_index
    return slot_index + (params.t_sniff_slots - delta)


def next_anchor_slot(slot_index: int, params: SniffParams) -> int:
    """First anchor slot index >= ``slot_index``."""
    delta = (slot_index - params.d_sniff_slots) % params.t_sniff_slots
    if delta == 0:
        return slot_index
    return slot_index + (params.t_sniff_slots - delta)


def validate(params: SniffParams) -> None:
    """Sanity-check negotiated parameters."""
    if params.t_sniff_slots < 2:
        raise ValueError("Tsniff must be at least 2 slots")
    if not 1 <= params.n_attempt_slots <= params.t_sniff_slots:
        raise ValueError("N_attempt must lie in [1, Tsniff]")
