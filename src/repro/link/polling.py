"""Master-side slot scheduling policies.

At each master-slot pair it evaluates, the master picks at most one
action: serve a parked-slave beacon, eagerly poll a slave returning from
hold, serve a sniffing slave at its anchor, send queued data, or
keep-alive poll the active slave whose T_poll deadline is closest. The
policy object makes the choice; the default round-robin policy reproduces
the paper's behaviour and an exhaustive policy is provided for the
scheduling ablation.

The master does not evaluate every pair.  After a pair on which
:meth:`PollingPolicy.choose` returned ``None`` it sleeps until
:meth:`PollingPolicy.next_pair`; any new data or mode change wakes it
earlier.  ``next_pair`` may name a pair too early (that evaluation just
returns ``None`` again) but never too late.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.link.piconet import SlaveLink
from repro.link.sniff import in_attempt_window, next_attempt_slot
from repro.link.states import ConnectionMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.link.connection import ConnectionMaster


@dataclass(frozen=True)
class SlotAction:
    """What the master does in one TX slot.

    Attributes:
        kind: 'beacon' | 'data' | 'poll'.
        am_addr: target slave (0 for broadcast beacon).
    """

    kind: str
    am_addr: int


class PollingPolicy:
    """Interface for master slot scheduling."""

    def choose(self, master: "ConnectionMaster", slot_index: int) -> Optional[SlotAction]:
        raise NotImplementedError

    def next_pair(self, master: "ConnectionMaster", pair: int) -> Optional[int]:
        """Earliest pair after ``pair`` at which :meth:`choose` might return
        an action, assuming no new data arrives and no link changes mode
        (the master wakes itself on those).  ``None`` means never.

        Called only after ``choose(master, pair)`` returned ``None``.  The
        default evaluates every pair, which is always safe; a policy whose
        choice depends on anything besides the link state, the TX buffers
        and the pair index must keep it."""
        return pair + 1


class RoundRobinPolicy(PollingPolicy):
    """Default: beacons first, hold-returners, sniff anchors, data, T_poll."""

    def choose(self, master: "ConnectionMaster", slot_index: int) -> Optional[SlotAction]:
        # 1. beacon for parked slaves
        if master.beacon_due(slot_index):
            return SlotAction(kind="beacon", am_addr=0)

        reachable: list[SlaveLink] = []
        for link in master.piconet.slaves.values():
            # hold bookkeeping is keyed on the schedule + resync set, not on
            # link.mode: a reply in flight when the next hold is scheduled
            # must not make the slave look reachable during that hold
            schedule = master.hold_schedules.get(link.am_addr)
            if schedule is not None and schedule.active(slot_index):
                continue  # unreachable during hold
            if master.needs_resync(link.am_addr):
                # returned from hold: poll on the resync schedule until heard
                if master.resync_poll_due(link.am_addr, slot_index):
                    return SlotAction(kind="poll", am_addr=link.am_addr)
                continue
            if link.mode is ConnectionMode.SNIFF and link.sniff is not None:
                if not in_attempt_window(slot_index, link.sniff):
                    continue
            reachable.append(link)

        # 2. queued data, oldest-first across reachable slaves
        best: Optional[SlaveLink] = None
        best_age = -1
        for link in reachable:
            item = master.device.tx_buffer_for(link.am_addr).peek()
            if item is not None:
                age = master.device.sim.now - item.enqueued_ns
                if age > best_age:
                    best, best_age = link, age
        if best is not None:
            return SlotAction(kind="data", am_addr=best.am_addr)

        # 3. keep-alive polling by most-overdue T_poll deadline
        # (T_poll is configured in slots; pair indices advance one per 2 slots)
        t_poll = max(1, master.device.cfg.link.t_poll_slots // 2)
        most_overdue: Optional[SlaveLink] = None
        overdue_by = 0
        for link in reachable:
            due_in = link.last_poll_slot + t_poll - slot_index
            if due_in <= 0 and -due_in >= overdue_by:
                most_overdue, overdue_by = link, -due_in
        if most_overdue is not None:
            return SlotAction(kind="poll", am_addr=most_overdue.am_addr)
        return None

    def next_pair(self, master: "ConnectionMaster", pair: int) -> Optional[int]:
        """The minimum over the beacon grid and, per slave, the first pair
        it could be served: the resync-poll grid after a hold, else the
        next pair when data is queued or its T_poll deadline, moved to its
        next attempt window when sniffing, and to its hold's end when a
        hold covers that pair."""
        after = pair + 1
        wake = master.next_beacon_pair(after)
        t_poll = max(1, master.device.cfg.link.t_poll_slots // 2)
        for link in master.piconet.slaves.values():
            am_addr = link.am_addr
            if master.needs_resync(am_addr):
                due = master.next_resync_poll_pair(after)
            else:
                if master.device.tx_buffer_for(am_addr).empty:
                    due = max(after, link.last_poll_slot + t_poll)
                else:
                    due = after
                if link.mode is ConnectionMode.SNIFF and link.sniff is not None:
                    due = next_attempt_slot(due, link.sniff)
            schedule = master.hold_schedules.get(am_addr)
            if schedule is not None and due >= schedule.start_slot:
                due = schedule.end_slot  # the hold expires there
            if wake is None or due < wake:
                wake = due
        return wake


class ExhaustivePolicy(RoundRobinPolicy):
    """Ablation: poll every reachable slave each slot pair, regardless of
    T_poll (maximum responsiveness, maximum power)."""

    def choose(self, master: "ConnectionMaster", slot_index: int) -> Optional[SlotAction]:
        action = super().choose(master, slot_index)
        if action is not None:
            return action
        links = [l for l in master.piconet.slaves.values()
                 if l.mode is ConnectionMode.ACTIVE]
        if not links:
            return None
        target = links[slot_index % len(links)]
        return SlotAction(kind="poll", am_addr=target.am_addr)

    # next_pair is inherited: with an active link this policy acts on every
    # pair, so it only idles where the round-robin choice does
