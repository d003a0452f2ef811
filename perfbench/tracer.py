"""Span tracer for the traced benchmark run.

The tracer times calls into each layer's public functions from outside
the program: :meth:`Tracer.install` replaces those functions (class
attributes and module globals) with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back, so untraced runs
execute the program untouched.

A span is ``(layer, op, start, end, parent, trial)``: ``parent`` is the
index of the enclosing span (-1 for a root) and ``trial`` the
``(campaign, sweep, point, trial)`` id shared by every span of one trial
(``-1`` coordinates outside the executor's trials).  Spans stay in memory
until :meth:`Tracer.write` dumps them as JSON lines.  A span's self time
is its duration minus the durations of its direct children; since calls
nest strictly, the self times of all spans add up to the root spans'
durations.

Counts that no call boundary exposes are read from the public counters of
every :class:`~repro.api.Session` a trial created, when the trial ends:
``Simulator.events_dispatched``, the SoA engine's window counters,
``Channel.collisions``, the connection packet counters and the link
managers' PDU counters.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable

#: The repo's layers, in report order (``repro.<layer>`` packages).
LAYERS = ("experiments", "stats", "api", "sim", "sim.soa", "link", "lm",
          "phy", "baseband", "power")


class Tracer:
    """Collects spans and counters for one traced repetition."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.campaign = ""
        self.trial: tuple = ("", -1, -1, -1)
        self._stack: list[int] = []
        self._sessions: list = []
        self._patches: list = []

    # -- spans ------------------------------------------------------------

    def wrap(self, layer: str, op, fn: Callable) -> Callable:
        """``fn`` timed as a span of ``layer``.  ``op`` names the span, or
        is a callable of the call's arguments returning the name."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        fixed = op if isinstance(op, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = fixed if fixed is not None else op(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, name, start, end, parent, tracer.trial)

        return traced

    def root(self, campaign: str, call: Callable):
        """Run ``call`` as the root span of one campaign."""
        self.campaign = campaign
        self.trial = (campaign, -1, -1, -1)
        try:
            return self.wrap("experiments", "campaign", call)()
        finally:
            self._harvest()

    # -- installation -----------------------------------------------------

    def patch(self, owner, attr: str, layer: str, op=None,
              pre: Callable | None = None) -> None:
        """Replace ``owner.attr`` by its traced version.  ``pre`` may
        first decorate the original (counting, result capture)."""
        original = getattr(owner, attr)
        fn = pre(original) if pre is not None else original
        setattr(owner, attr, self.wrap(layer, op or attr, fn))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched function."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Patch the public entry points of every layer."""
        from repro import api
        from repro.baseband import errormodel, hop
        from repro.link import connection, device, traffic
        from repro.lm import lmp
        from repro.phy import channel
        from repro.power import rf_activity
        from repro.sim import simulator, soa
        from repro.stats import executor, resilient, store

        # stats: executors (each item becomes a trial span) and journal
        self.patch(executor.SequentialExecutor, "map", "stats",
                   pre=self._trials_of_map)
        self.patch(resilient.ResilientExecutor, "map_keyed", "stats",
                   pre=self._trials_of_map_keyed)
        for attr in ("__init__", "record", "flush", "close"):
            self.patch(store.ResultStore, attr, "stats", f"journal.{attr}")

        # api: world bring-up and stepping
        self.patch(api.Session, "__init__", "api", "session",
                   pre=self._register_session)
        self.patch(api.Session, "add_device", "api")
        for attr in ("run_inquiry", "run_page"):
            self.patch(api.Session, attr, "api", "bringup")
        for attr in ("run_slots", "run_until"):
            self.patch(api.Session, attr, "api", _stepping_op)

        # sim: object kernel and SoA micro-kernel
        self.patch(simulator.Simulator, "run", "sim")
        self.patch(soa.SlotEngine, "run", "sim.soa")

        # link: procedures, traffic, connection handlers and modes
        self.patch(device.BluetoothDevice, "__init__", "link", "device")
        for attr in ("start_inquiry", "start_page"):
            self.patch(device.BluetoothDevice, attr, "link", "procedure",
                       pre=self._procedure_result)
        for attr in ("start_inquiry_scan", "start_page_scan",
                     "stop_procedure"):
            self.patch(device.BluetoothDevice, attr, "link", "procedure")
        for cls in (traffic.PeriodicTraffic, traffic.DutyCycleTraffic,
                    traffic.SaturatedTraffic):
            self.patch(cls, "start", "link", "traffic")
        for cls in (connection.ConnectionMaster, connection.ConnectionSlave):
            self.patch(cls, "on_reception", "link", "reception")
        for attr in ("set_sniff", "exit_sniff", "set_hold"):
            self.patch(connection.ConnectionMaster, attr, "link", "mode")
        for attr in ("enter_sniff", "exit_sniff", "enter_hold"):
            self.patch(connection.ConnectionSlave, attr, "link", "mode")

        # lm: PDU transport and mode requests
        for attr in ("send", "on_rx"):
            self.patch(lmp.LinkManager, attr, "lm", "pdu")
        for attr in ("request_sniff", "request_unsniff", "request_hold",
                     "request_park", "request_detach"):
            self.patch(lmp.LinkManager, attr, "lm", "request")

        # phy: the shared channel
        self.patch(channel.Channel, "__init__", "phy", "channel")
        self.patch(channel.Channel, "transmit", "phy", "transmit")

        # baseband: hop selection (the SoA engine binds the batched
        # prefill by name) and stage draws
        for attr in ("page", "page_scan", "response", "connection",
                     "connection_many", "connection_window"):
            self.patch(hop.HopSelector, attr, "baseband", "hop")
        self.patch(hop, "connection_windows_many", "baseband", "hop")
        self.patch(soa, "connection_windows_many", "baseband", "hop")
        for attr in ("sample_sync", "sample_header", "sample_payload",
                     "sample_stages", "sample_sync_batch",
                     "sample_stages_batch"):
            self.patch(errormodel.StageErrorModel, attr, "baseband", "stage")

        # power: RF-activity probe
        for attr in ("__init__", "reset", "sample"):
            self.patch(rf_activity.RfActivityProbe, attr, "power", attr)

    # -- decorations applied before timing --------------------------------

    def _trial(self, fn: Callable, ids: dict) -> Callable:
        """``fn`` with each call traced as the trial ``ids[item]``."""
        tracer = self
        timed = self.wrap("experiments", "trial", fn)

        def run_trial(item):
            outer = tracer.trial
            tracer.trial = (tracer.campaign, *ids[item])
            try:
                return timed(item)
            finally:
                tracer._harvest()
                tracer.trial = outer

        return run_trial

    def _trials_of_map(self, original: Callable) -> Callable:
        def map_(executor, fn, items, progress=None):
            items = list(items)
            ids = {item: (0, index, 0) for index, item in enumerate(items)}
            return original(executor, self._trial(fn, ids), items,
                            progress=progress)

        return map_

    def _trials_of_map_keyed(self, original: Callable) -> Callable:
        def map_keyed(executor, fn, items, keys, progress=None,
                      journal=None):
            items = list(items)
            ids = {item: tuple(key[:3]) for item, key in zip(items, keys)}
            try:
                return original(executor, self._trial(fn, ids), items, keys,
                                progress=progress, journal=journal)
            finally:
                progress_dict = executor.last_progress or {}
                self.counts["stats.retries"] += progress_dict.get("retries",
                                                                  0)

        return map_keyed

    def _register_session(self, original: Callable) -> Callable:
        def init(session, *args, **kwargs):
            original(session, *args, **kwargs)
            self._sessions.append(session)

        return init

    def _procedure_result(self, original: Callable) -> Callable:
        def start(device, *args, on_complete=None, **kwargs):
            self.counts["link.procedures"] += 1

            def complete(result):
                self.counts["link.procedure_slots"] += result.duration_slots
                if on_complete is not None:
                    on_complete(result)

            return original(device, *args, on_complete=complete, **kwargs)

        return start

    # -- counters read from the worlds a trial built ------------------------

    def _harvest(self) -> None:
        from repro import units

        counts = self.counts
        for session in self._sessions:
            counts["api.sessions"] += 1
            counts["api.sim_slots"] += session.sim.now / units.SLOT_NS
            counts["sim.events"] += session.sim.events_dispatched
            counts["phy.collisions"] += session.channel.collisions
            engine = session.slot_engine
            if engine is not None:
                counts["sim.soa.absorbed"] += engine.windows_absorbed
                counts["sim.soa.declined"] += engine.windows_declined
                counts["sim.soa.micro_events"] += engine.micro_events
            for dev in session.devices:
                counts["lm.pdus"] += dev.lm.pdus_sent
                for end in (dev.connection_master, dev.connection_slave):
                    if end is not None:
                        counts["link.tx_packets"] += end.stats_tx_packets
                        counts["link.rx_packets"] += end.stats_rx_packets
        self._sessions.clear()

    # -- output -----------------------------------------------------------

    def work_counts(self) -> dict:
        """Spans per name plus the harvested counters: the work of the
        repetition, which must repeat exactly at one seed."""
        counts = {f"{layer}.{op}": 0 for layer, op, *_ in self.spans}
        for layer, op, *_ in self.spans:
            counts[f"{layer}.{op}"] += 1
        counts.update(self.counts)
        return counts

    def write(self, path: str) -> None:
        """Dump the spans as JSON lines (times in seconds from the first
        span's start)."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as stream:
            for index, (layer, op, start, end, parent, trial) in \
                    enumerate(self.spans):
                stream.write(json.dumps(
                    {"id": index, "parent": parent, "name": f"{layer}.{op}",
                     "start": start - origin, "end": end - origin,
                     "trial": list(trial)}, separators=(",", ":")) + "\n")


def _stepping_op(session, *args, **kwargs) -> str:
    """``bringup`` while any device of the world is mid-procedure
    (inquiry, page or their scans and responses), else ``run``."""
    from repro.link.states import DeviceState

    idle = (DeviceState.CONNECTION, DeviceState.STANDBY)
    if any(dev.state not in idle for dev in session.devices):
        return "bringup"
    return "run"


def analyse(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of a traced repetition that took ``wall_s``."""
    spans = tracer.spans
    self_time = [end - start for _, _, start, end, _, _ in spans]
    for layer, op, start, end, parent, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start

    def group(layer, ops=None, outer=True):
        """(count, inclusive seconds) of the spans of ``layer`` (with an op
        in ``ops``); ``outer`` skips spans nested in the same group."""
        count = 0
        seconds = 0.0
        for layer_, op, start, end, parent, _ in spans:
            if layer_ != layer or (ops is not None and op not in ops):
                continue
            if outer and parent >= 0:
                p_layer, p_op = spans[parent][0], spans[parent][1]
                if p_layer == layer and (ops is None or p_op in ops):
                    continue
            count += 1
            seconds += end - start
        return count, seconds

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (layer, *_), own in zip(spans, self_time):
        layer_self[layer] += own

    counts = tracer.counts
    trials, trial_s = group("experiments", {"trial"})
    _, campaign_s = group("experiments", {"campaign"})
    _, journal_s = group("stats", {"journal.__init__", "journal.record",
                                   "journal.flush", "journal.close"})
    flushes, _ = group("stats", {"journal.flush"}, outer=False)
    _, bringup_s = group("api", {"bringup"})
    _, run_s = group("api", {"run"})
    _, sim_inclusive = group("sim")
    tx, transmit_s = group("phy", {"transmit"})
    hop_calls, hop_s = group("baseband", {"hop"})
    stage_calls, stage_s = group("baseband", {"stage"})
    requests, _ = group("lm", {"request"})
    samples, _ = group("power", {"sample"})
    _, probe_s = group("power")
    stepped_s = bringup_s + run_s
    sim_slots = counts["api.sim_slots"]
    windows = counts["sim.soa.absorbed"] + counts["sim.soa.declined"]
    sum_self = sum(layer_self.values())
    # events_dispatched also counts the SoA micro-kernel's dispatches
    object_events = counts["sim.events"] - counts["sim.soa.micro_events"]

    metrics = {
        "stats.trials": (trials, "count"),
        "stats.trial_s": (trial_s, "s"),
        "stats.overhead_s": (campaign_s - trial_s, "s"),
        "stats.journal_s": (journal_s, "s"),
        "stats.journal_flushes": (flushes, "count"),
        "stats.retries": (counts["stats.retries"], "count"),
        "api.sessions": (counts["api.sessions"], "count"),
        "api.bringup_s": (bringup_s, "s"),
        "api.run_s": (run_s, "s"),
        "api.bringup_share": (_ratio(bringup_s, stepped_s), "ratio"),
        "api.sim_slots": (sim_slots, "slots"),
        "api.slots_per_s": (_ratio(sim_slots, stepped_s), "slots/s"),
        "sim.events": (counts["sim.events"], "count"),
        "sim.run_s": (layer_self["sim"], "s"),
        "sim.events_per_s": (_ratio(object_events, sim_inclusive), "1/s"),
        "sim.events_per_slot": (_ratio(counts["sim.events"], sim_slots),
                                "1/slot"),
        "sim.soa.absorbed": (counts["sim.soa.absorbed"], "count"),
        "sim.soa.declined": (counts["sim.soa.declined"], "count"),
        "sim.soa.absorb_ratio": (_ratio(counts["sim.soa.absorbed"], windows),
                                 "ratio"),
        "sim.soa.micro_events": (counts["sim.soa.micro_events"], "count"),
        "sim.soa.run_s": (layer_self["sim.soa"], "s"),
        "phy.tx": (tx, "count"),
        "phy.transmit_s": (transmit_s, "s"),
        "phy.collisions": (counts["phy.collisions"], "count"),
        "baseband.hop_calls": (hop_calls, "count"),
        "baseband.hop_s": (hop_s, "s"),
        "baseband.stage_calls": (stage_calls, "count"),
        "baseband.stage_s": (stage_s, "s"),
        "link.procedures": (counts["link.procedures"], "count"),
        "link.procedure_slots": (counts["link.procedure_slots"], "slots"),
        "link.tx_packets": (counts["link.tx_packets"], "count"),
        "link.rx_packets": (counts["link.rx_packets"], "count"),
        "link.delivery_ratio": (_ratio(counts["link.rx_packets"],
                                       counts["link.tx_packets"]), "ratio"),
        "lm.pdus": (counts["lm.pdus"], "count"),
        "lm.requests": (requests, "count"),
        "power.samples": (samples, "count"),
        "power.probe_s": (probe_s, "s"),
    }
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = (layer_self[layer], "s")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.residue_s"] = (wall_s - sum_self, "s")
    metrics["trace.spans"] = (len(spans), "count")
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
