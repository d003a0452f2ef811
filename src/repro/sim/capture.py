"""Unified timeline event capture — the drillable record of one world.

Campaign numbers (a goodput dip, an anomalous PER point) are hard to
explain after the fact: the information was there during the run — which
channels the piconet hopped on, which transmissions died to interference
and by how much margin, when the AFH controller moved its map — but it
was spread over prints and ad-hoc counters.  :class:`TimelineCapture`
collects those diagnostic streams into **one timestamped, queryable
timeline**: a bounded ring of typed records that the simulation's hot
paths append to through cheap guarded hooks (``if capture is not None``),
so a world with capture disabled pays a single attribute test per hook
site and produces byte-identical results.

Record kinds:

========================  ====================================================
``hop``                   master slot-loop hop selection (clk, frequency)
``tx_start`` / ``tx_end`` a transmission entering / leaving the air
``capture_loss``          a transmission destroyed by the SIR capture
                          resolver, with its measured SIR in dB
``arq_retx``              the ARQ scheme re-sending an unacknowledged payload
``afh_map``               an adaptive hop set being installed (size, mask)
``assess``                a classifier assessment (bad count, map updated?)
========================  ====================================================

The ring is bounded (``capacity`` events, oldest dropped first) so
capture can stay on for arbitrarily long runs; :meth:`counts` keeps exact
per-kind totals even after eviction.  Query with :meth:`events`, render
with :meth:`replay`, export with :meth:`to_jsonl`, or bridge into the
existing waveform tooling with :meth:`to_signals` /
:meth:`inject` + :meth:`TraceRecorder.to_vcd`.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.sim.trace import TracedSignal, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.transmission import Transmission

#: The typed record kinds, in rough causal order.
KINDS = ("hop", "tx_start", "tx_end", "capture_loss", "arq_retx",
         "afh_map", "assess")

#: Timeline record schema version.  v2 added the spatial-layer
#: ``distance_m`` / ``rx_dbm`` details to ``capture_loss`` (None on flat
#: worlds).  :func:`read_jsonl` reads v1 archives by filling the missing
#: details with None.
SCHEMA_VERSION = 2

#: Detail-field names per kind, positionally matching the flat ring
#: tuples the typed recorders append (see TimelineCapture.__init__).
_FIELDS = {
    "hop": ("clk",),
    "tx_start": ("ptype", "purpose", "duration_ns"),
    "tx_end": ("ptype", "corrupted"),
    "capture_loss": ("ptype", "sir_db", "distance_m", "rx_dbm"),
    "arq_retx": ("am_addr", "seqn"),
    "afh_map": ("n_used", "excluded"),
    "assess": ("n_bad", "installed"),
}

#: Sentinel for "derive sir_db from the transmission's accumulated
#: interference" (the flat resolvers' behaviour; the spatial resolver
#: passes its per-pair SIR explicitly, where None is a valid value).
_TX_SIR = object()


@dataclass
class TimelineEvent:
    """One timeline record: time, kind, source, RF channel and details.

    ``src`` names the originating entity (a radio path like
    ``master.rf``, or a controller name); ``freq`` is the RF channel the
    event concerns (``None`` for channel-less events like map installs);
    ``data`` carries the kind-specific fields described in
    :mod:`repro.sim.capture`.
    """

    t_ns: int
    kind: str
    src: str
    freq: Optional[int] = None
    data: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """A one-line human rendering (used by :meth:`TimelineCapture.replay`)."""
        freq = "" if self.freq is None else f" ch={self.freq}"
        details = " ".join(f"{key}={value}" for key, value in self.data.items())
        details = f" {details}" if details else ""
        return f"[{self.t_ns:>12} ns] {self.kind:<12} {self.src}{freq}{details}"


class TimelineCapture:
    """Bounded ring buffer of :class:`TimelineEvent` records for one world.

    Attach to a world by assigning it to
    :attr:`repro.phy.channel.Channel.capture` (the
    :class:`~repro.api.Session` constructor does this when asked);
    every hook site in the channel, connection logic and AFH controller
    then appends through the typed recorder methods below.  Simulation
    time is monotone, so the ring is always in time order.
    """

    def __init__(self, capacity: int = 1 << 16):
        if capacity <= 0:
            raise ValueError("capture capacity must be positive")
        self.capacity = capacity
        # the ring holds flat (t_ns, kind, src, freq, *details) tuples —
        # one allocation per record, detail names resolved positionally
        # through _FIELDS at query time; TimelineEvent objects (and their
        # detail dicts) are materialized lazily, so the hot recording
        # path pays one tuple literal and one bounded append per record.
        # Per-kind totals are NOT tallied per append: while the ring has
        # room the ring itself is the tally, and once it is full each
        # append banks the kind of the record it evicts — so counts()
        # stays exact over the whole run while the hot path never touches
        # a counting dict until eviction actually starts.
        self._events: deque[tuple] = deque(maxlen=capacity)
        self._append = self._events.append
        self._evicted: Counter[str] = Counter()

    @staticmethod
    def _data(row: tuple) -> dict[str, Any]:
        """The detail dict of one flat ring tuple.  The tx recorders
        carry the raw PacketType member (an Enum ``.value`` read costs a
        descriptor call, too slow for the hot path); it is resolved to
        its string here."""
        data = dict(zip(_FIELDS[row[1]], row[4:]))
        ptype = data.get("ptype")
        if ptype is not None and not isinstance(ptype, str):
            data["ptype"] = ptype.value
        return data

    # ------------------------------------------------------------------
    # Recording (hot-path entry points — callers guard on `is not None`)
    # ------------------------------------------------------------------

    def record(self, t_ns: int, kind: str, src: str,
               freq: Optional[int] = None, **data: Any) -> None:
        """Append a record of a typed kind (generic entry point; the
        positional helpers below are what the simulation hooks call).
        ``data`` keys must be exactly the kind's detail fields."""
        fields = _FIELDS[kind]
        if set(data) != set(fields):
            raise ValueError(
                f"{kind!r} records carry fields {fields}, got {tuple(data)}")
        events = self._events
        if len(events) == self.capacity:
            self._evicted[events[0][1]] += 1
        events.append((t_ns, kind, src, freq,
                       *(data[field] for field in fields)))

    def hop(self, t_ns: int, src: str, clk: int, freq: int) -> None:
        """Master slot loop selected ``freq`` at piconet clock ``clk``."""
        events = self._events
        if len(events) == self.capacity:
            self._evicted[events[0][1]] += 1
        events.append((t_ns, "hop", src, freq, clk))

    def tx_start(self, t_ns: int, tx: "Transmission") -> None:
        """A transmission entered the air.  Fields are copied out *now*
        rather than pinning ``tx`` in the ring: a retained Transmission
        graph would survive its natural lifetime and multiply young-gen
        GC passes — measurably pricier than the five eager reads."""
        events = self._events
        if len(events) == self.capacity:
            self._evicted[events[0][1]] += 1
        events.append((t_ns, "tx_start", tx.radio.path, tx.freq,
                       tx.packet.ptype, tx.meta.purpose, tx.duration_ns))

    def tx_end(self, t_ns: int, tx: "Transmission") -> None:
        """A transmission left the air (with its final corruption flag)."""
        events = self._events
        if len(events) == self.capacity:
            self._evicted[events[0][1]] += 1
        events.append((t_ns, "tx_end", tx.radio.path, tx.freq,
                       tx.packet.ptype, tx.corrupted))

    def capture_loss(self, t_ns: int, tx: "Transmission",
                     sir_db: Any = _TX_SIR,
                     distance_m: Optional[float] = None,
                     rx_dbm: Optional[float] = None) -> None:
        """The SIR capture resolver destroyed ``tx``; records the measured
        signal-to-interference ratio in dB (``None`` when the ratio is
        undefined: zero wanted power or zero interference power).

        The flat resolvers call this with the transmission alone and the
        SIR derives from its accumulated interference; the spatial
        resolver passes the per-(tx, listener) ``sir_db`` explicitly plus
        the pair's ``distance_m`` and received power ``rx_dbm`` (schema
        v2 details, None on flat worlds)."""
        if sir_db is _TX_SIR:
            if tx.interference_mw > 0.0 and tx.power_mw > 0.0:
                sir_db = round(
                    10.0 * math.log10(tx.power_mw / tx.interference_mw), 2)
            else:
                sir_db = None
        events = self._events
        if len(events) == self.capacity:
            self._evicted[events[0][1]] += 1
        events.append((t_ns, "capture_loss", tx.radio.path, tx.freq,
                       tx.packet.ptype, sir_db, distance_m, rx_dbm))

    def arq_retx(self, t_ns: int, src: str, freq: int, am_addr: int,
                 seqn: int) -> None:
        """The ARQ scheme re-sent an unacknowledged payload."""
        events = self._events
        if len(events) == self.capacity:
            self._evicted[events[0][1]] += 1
        events.append((t_ns, "arq_retx", src, freq, am_addr, seqn))

    def afh_map(self, t_ns: int, src: str, n_used: int,
                excluded: list[int]) -> None:
        """An adaptive hop set was installed (or cleared: all 79 used)."""
        events = self._events
        if len(events) == self.capacity:
            self._evicted[events[0][1]] += 1
        events.append((t_ns, "afh_map", src, None, n_used, excluded))

    def assess(self, t_ns: int, src: str, n_bad: int,
               installed: bool) -> None:
        """The classifier ran an assessment."""
        events = self._events
        if len(events) == self.capacity:
            self._evicted[events[0][1]] += 1
        events.append((t_ns, "assess", src, None, n_bad, installed))

    # ------------------------------------------------------------------
    # Query / replay
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def counts(self) -> dict[str, int]:
        """Exact per-kind totals over the whole run (eviction-proof):
        the banked kinds of every evicted record plus a tally of the
        retained ring."""
        totals = Counter(self._evicted)
        totals.update(row[1] for row in self._events)
        return {kind: totals[kind] for kind in KINDS if totals[kind]}

    def events(self, kind: Optional[str] = None, src: Optional[str] = None,
               freq: Optional[int] = None, start_ns: Optional[int] = None,
               end_ns: Optional[int] = None) -> list[TimelineEvent]:
        """The retained records matching every given filter, in time order.

        ``src`` matches exactly or as a dotted prefix (``"master"``
        matches ``"master.rf"``), so a device's whole activity can be
        pulled with its name alone.
        """
        out = []
        for row in self._events:
            t_ns, ekind, esrc, efreq = row[:4]
            if kind is not None and ekind != kind:
                continue
            if src is not None and esrc != src \
                    and not esrc.startswith(src + "."):
                continue
            if freq is not None and efreq != freq:
                continue
            if start_ns is not None and t_ns < start_ns:
                continue
            if end_ns is not None and t_ns >= end_ns:
                continue
            out.append(TimelineEvent(t_ns, ekind, esrc, efreq,
                                     self._data(row)))
        return out

    def replay(self, **filters: Any) -> Iterator[str]:
        """Yield one human-readable line per matching record, in time
        order — the drill-down view of a surprising campaign number."""
        for event in self.events(**filters):
            yield event.describe()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_signals(self) -> list[TracedSignal]:
        """Synthesize one :class:`TracedSignal` per record kind
        (``timeline.<kind>``), carrying the records' one-line renderings
        as string values — the bridge into the existing
        :class:`~repro.sim.trace.TraceRecorder` / VCD tooling."""
        by_kind: dict[str, TracedSignal] = {}
        for row in self._events:
            t_ns, ekind, esrc, efreq = row[:4]
            traced = by_kind.get(ekind)
            if traced is None:
                traced = by_kind[ekind] = TracedSignal(f"timeline.{ekind}")
            traced.times.append(t_ns)
            traced.values.append(
                TimelineEvent(t_ns, ekind, esrc, efreq, self._data(row))
                .describe())
        return [by_kind[kind] for kind in KINDS if kind in by_kind]

    def inject(self, recorder: TraceRecorder) -> None:
        """Merge this timeline into ``recorder`` so its next
        :meth:`~repro.sim.trace.TraceRecorder.to_vcd` export interleaves
        timeline records with the watched waveforms."""
        for traced in self.to_signals():
            recorder.signals[traced.name] = traced

    def to_jsonl(self, stream: io.TextIOBase) -> int:
        """Write every retained record as one JSON object per line;
        returns the number of lines written (the per-trial archive format
        of the experiment harnesses, schema :data:`SCHEMA_VERSION`)."""
        written = 0
        for row in self._events:
            t_ns, kind, src, freq = row[:4]
            stream.write(json.dumps(
                {"t_ns": t_ns, "kind": kind, "src": src, "freq": freq,
                 **self._data(row)}))
            stream.write("\n")
            written += 1
        return written


def read_jsonl(stream: io.TextIOBase) -> list[TimelineEvent]:
    """Read a :meth:`TimelineCapture.to_jsonl` archive back into
    :class:`TimelineEvent` records.

    Back-compat by construction: detail fields a record does not carry —
    e.g. the schema-v2 ``distance_m``/``rx_dbm`` on a v1
    ``capture_loss`` — are filled with None, so old archives read
    losslessly under the current schema.  Unknown kinds and extra fields
    are preserved as-is (forward compat for newer archives).
    """
    out = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        raw = json.loads(line)
        kind = raw.pop("kind")
        t_ns = raw.pop("t_ns")
        src = raw.pop("src")
        freq = raw.pop("freq", None)
        for name in _FIELDS.get(kind, ()):
            raw.setdefault(name, None)
        out.append(TimelineEvent(t_ns, kind, src, freq, raw))
    return out
