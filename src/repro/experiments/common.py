"""Shared experiment plumbing: configs, BER grids, result containers."""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import units
from repro.config import SimulationConfig
from repro.link.page import PageTarget
from repro.stats.chaos import ChaosConfig
from repro.stats.executor import Executor, SequentialExecutor, default_jobs
from repro.stats.fabric import FABRIC_ENV_VAR, FabricExecutor
from repro.stats.montecarlo import TrialOutcome
from repro.stats.resilient import ResilientExecutor
from repro.stats.store import (
    RESUME_DIR_ENV_VAR,
    ResultStore,
    campaign_digest,
    map_with_store,
)
from repro.stats.sweep import (
    Sweep,
    SweepPoint,
    callable_name,
    campaign_spec,
    run_flattened,
)
from repro.stats.tables import format_table

#: The paper's BER grid (Figs. 6-8): 1/100 to 1/30, plus a zero-noise point.
PAPER_BER_GRID: list[tuple[float, str]] = [
    (0.0, "0"),
    (1 / 100, "1/100"),
    (1 / 90, "1/90"),
    (1 / 80, "1/80"),
    (1 / 70, "1/70"),
    (1 / 60, "1/60"),
    (1 / 50, "1/50"),
    (1 / 40, "1/40"),
    (1 / 30, "1/30"),
]


#: Environment switch: run every experiment's channel in bit-accurate mode
#: (full air-frame encode/decode + per-bit noise) instead of the statistical
#: per-stage error model.  Worker processes inherit it, so parallel runs
#: stay consistent.
BIT_ACCURATE_ENV_VAR = "REPRO_BIT_ACCURATE"

#: Environment switch: when set to a directory path, campaign trials run
#: with the timeline capture enabled and archive one JSONL file per trial
#: there (``<experiment_id>__<label>.jsonl``).  The capture hooks are
#: purely observational, so archived runs produce byte-identical results
#: to unarchived ones — the archive only adds the drill-down record.
TIMELINE_DIR_ENV_VAR = "REPRO_TIMELINE_DIR"

#: Environment switch: emit a journal-backed status line to stderr while a
#: campaign runs.  The value is the minimum seconds between lines (any
#: other truthy value selects the 2 s default); campaigns stay
#: byte-identical — the line is rendered from the executor's progress
#: dict, never from the results.
PROGRESS_ENV_VAR = "REPRO_PROGRESS"

#: Default cadence of the ``REPRO_PROGRESS`` status line.
DEFAULT_PROGRESS_INTERVAL_S = 2.0


def bit_accurate_default() -> bool:
    """True when REPRO_BIT_ACCURATE selects bit-accurate experiment runs."""
    value = os.environ.get(BIT_ACCURATE_ENV_VAR, "")
    return value.strip().lower() not in ("", "0", "false", "off", "no")


def timeline_dir() -> Optional[str]:
    """The REPRO_TIMELINE_DIR archive directory, or None when archiving
    is off (unset or blank)."""
    value = os.environ.get(TIMELINE_DIR_ENV_VAR, "").strip()
    return value or None


def resume_dir() -> Optional[str]:
    """The REPRO_RESUME_DIR journal directory, or None when resumable
    execution is off (unset or blank)."""
    value = os.environ.get(RESUME_DIR_ENV_VAR, "").strip()
    return value or None


def _store_name(fn: Callable) -> str:
    """A stable journal filename stem for ``fn``'s campaign (module tail
    plus qualname, filesystem-safe)."""
    stem = callable_name(fn).rsplit(".", 2)[-2:]
    return "".join(ch if ch.isalnum() or ch in "-_" else "_"
                   for ch in "__".join(stem))


def campaign_store(name: str, spec, resume: Optional[str] = None
                   ) -> Optional[ResultStore]:
    """The result journal of campaign ``name``/``spec``, or None.

    ``resume`` names the journal directory explicitly; otherwise
    ``REPRO_RESUME_DIR`` is consulted, and None (journalling off) is
    returned when neither is set.  The journal file is
    ``<dir>/<name>.jsonl``, its header bound to ``campaign_digest(spec)``
    — resuming with a changed spec (different seed, trial count, grid or
    trial function) is refused rather than silently mixed.
    """
    directory = resume if resume is not None else resume_dir()
    if directory is None:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.jsonl")
    return ResultStore(path, campaign_digest(spec), meta={"campaign": name})


def progress_interval() -> Optional[float]:
    """The ``REPRO_PROGRESS`` status-line cadence in seconds, or None when
    progress reporting is off (unset, blank or falsy)."""
    value = os.environ.get(PROGRESS_ENV_VAR, "").strip()
    if value.lower() in ("", "0", "false", "off", "no"):
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return DEFAULT_PROGRESS_INTERVAL_S


def _progress_printer(interval_s: float) -> Callable[[dict], None]:
    """A rate-limited stderr renderer of the journal-backed progress dict
    (``completed/total`` plus whatever counters the backend reports —
    retries, redispatches, fabric workers, stolen leases, missed
    heartbeats, respawns).  The final ``completed == total`` line always
    prints, so a finished campaign never ends on a stale count."""
    last_emit = [0.0]

    def _print(progress: dict) -> None:
        now = time.monotonic()
        done = progress.get("completed") == progress.get("total")
        if not done and now - last_emit[0] < interval_s:
            return
        last_emit[0] = now
        counters = " ".join(
            f"{key}={value}" for key, value in progress.items()
            if key not in ("completed", "total", "cached", "last_checkpoint")
            and value)
        line = (f"[repro] {progress.get('completed')}/{progress.get('total')}"
                f" trials (cached {progress.get('cached', 0)})")
        if counters:
            line += " " + counters
        print(line, file=sys.stderr, flush=True)

    return _print


def _campaign_executor(jobs: Optional[int],
                       store: Optional[ResultStore]) -> Executor:
    """The execution backend for one campaign run.

    ``REPRO_FABRIC`` selects the distributed sweep fabric
    (:class:`~repro.stats.fabric.FabricExecutor`) with its spec outright.
    Above one job the fabric runs with that many forked loopback workers
    (as :func:`~repro.stats.executor.get_executor` picks it).  At one job
    the sequential reference runs — unless a result journal is active,
    ``REPRO_CHAOS`` schedules fault injection or ``REPRO_PROGRESS`` wants
    the journal-backed status line: then the in-process
    :class:`~repro.stats.resilient.ResilientExecutor` carries the same
    chaos/retry/checkpoint story as the fabric.
    """
    chaos = ChaosConfig.from_env()
    interval = progress_interval()
    on_progress = _progress_printer(interval) if interval is not None else None
    if os.environ.get(FABRIC_ENV_VAR, "").strip():
        return FabricExecutor.from_env(chaos=chaos, on_progress=on_progress)
    resolved = default_jobs(jobs)
    if resolved > 1:
        return FabricExecutor(workers=resolved, chaos=chaos,
                              on_progress=on_progress)
    if store is None and chaos is None and on_progress is None:
        return SequentialExecutor()
    return ResilientExecutor(chaos=chaos, on_progress=on_progress)


def archive_timeline(session, experiment_id: str, label: str) -> Optional[str]:
    """Write ``session``'s captured timeline to the archive directory.

    One JSONL file per call, named ``<experiment_id>__<label>.jsonl`` —
    replayable offline with :class:`repro.sim.capture.TimelineEvent` or
    any JSON tooling.  No-op (returns None) when archiving is off or the
    session ran without a capture.
    """
    directory = timeline_dir()
    if directory is None or session.capture is None:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{experiment_id}__{label}.jsonl")
    with open(path, "w", encoding="utf-8") as stream:
        session.capture.to_jsonl(stream)
    return path


def paper_config(ber: float = 0.0, seed: int = 0,
                 sync_threshold: Optional[int] = None,
                 bit_accurate: Optional[bool] = None,
                 **link_overrides) -> SimulationConfig:
    """A SimulationConfig matching the paper's setup.

    ``sync_threshold``: None keeps the library default (7, the spec's
    57-of-64 sliding correlator); the page-phase reproductions pass 0
    because the paper's behavioural receiver compares access codes
    bit-exactly — that is what makes its page phase collapse at high BER
    (see EXPERIMENTS.md and the ablation_correlator bench).

    ``bit_accurate``: None consults the ``REPRO_BIT_ACCURATE`` environment
    variable (default off, the statistical per-stage channel).
    """
    if bit_accurate is None:
        bit_accurate = bit_accurate_default()
    config = SimulationConfig(seed=seed, bit_accurate=bit_accurate).with_ber(ber)
    overrides = dict(link_overrides)
    if sync_threshold is not None:
        overrides["sync_threshold"] = sync_threshold
    if overrides:
        config = dataclasses.replace(
            config, link=dataclasses.replace(config.link, **overrides))
    return config


def page_up_pair(session, index: int = 0, label: str = "experiment"):
    """Add one ``m{index}``/``s{index}`` master/slave pair to ``session``
    and page it up under a 4096-slot guard (polled in 16-slot steps).

    The shared bring-up protocol of the campaign builders
    (``ext_interference``, ``ext_afh``) — kept in one place so their
    scenarios stay protocol-identical and cross-comparable.  Raises
    ``RuntimeError`` tagged with ``label`` when the page cannot complete.
    """
    master = session.add_device(f"m{index}")
    slave = session.add_device(f"s{index}")
    slave.start_page_scan()
    box = []
    master.start_page(PageTarget(addr=slave.addr,
                                 clock_estimate=slave.clock),
                      on_complete=box.append)
    guard = session.sim.now + 4096 * units.SLOT_NS
    while not box and session.sim.now < guard:
        session.run_slots(16)
    if not box or not box[0].success:
        raise RuntimeError(f"{label}: page failed")
    return master, slave


def run_sweep(seed: int, trials: int, xs: list[tuple[float, str]],
              trial_fn: Callable[[float, int], TrialOutcome],
              jobs: Optional[int] = None,
              executor: Optional[Executor] = None,
              resume: Optional[str] = None,
              store_name: Optional[str] = None) -> list[SweepPoint]:
    """Run the standard Monte-Carlo sweep of an experiment.

    ``jobs`` picks the execution backend (``REPRO_JOBS`` overrides, 1 =
    sequential); the outcome lists are identical at any job count because
    every trial is a pure function of its derived seed.  Pass ``executor``
    instead to share one backend across several sweeps (the caller then
    owns its lifetime).  The sweep runs as one flattened work queue
    with no per-point barrier (see :mod:`repro.stats.sweep`).

    ``resume`` (or the ``REPRO_RESUME_DIR`` environment variable) makes
    the run **kill-and-resume safe**: completed trials are journalled to
    ``<dir>/<store_name>.jsonl`` as they finish, already-journalled ones
    are skipped on restart, and the journal header refuses a campaign
    spec that differs from the one that wrote it.  A parallel run goes to
    the :class:`~repro.stats.fabric.FabricExecutor`, which survives worker
    deaths, dropped connections and missed heartbeats in place by
    re-leasing; at one job a journal (or ``REPRO_CHAOS`` fault injection)
    selects the in-process
    :class:`~repro.stats.resilient.ResilientExecutor`.  Aggregates stay
    byte-identical to a clean sequential run throughout.
    """
    sweep = Sweep(master_seed=seed, trials_per_point=trials)
    spec = campaign_spec([(sweep, xs, trial_fn)])
    store = campaign_store(store_name or _store_name(trial_fn), spec, resume)
    try:
        if executor is not None:
            return sweep.run(xs, trial_fn, executor=executor, store=store)
        with _campaign_executor(jobs, store) as owned:
            return sweep.run(xs, trial_fn, executor=owned, store=store)
    finally:
        if store is not None:
            store.close()


def run_sweeps(specs: list[tuple[int, int, list[tuple[float, str]],
                                 Callable[[float, int], TrialOutcome]]],
               jobs: Optional[int] = None,
               executor: Optional[Executor] = None,
               resume: Optional[str] = None,
               store_name: Optional[str] = None,
               ) -> list[list[SweepPoint]]:
    """Run several sweeps as one flattened work queue.

    ``specs`` is a list of ``(seed, trials, xs, trial_fn)`` tuples.  All
    sweeps' (point, trial) tasks go to the executor as one ordered grid,
    so neither point boundaries nor sweep boundaries act as join barriers
    (Fig. 8 uses this for its inquiry + page pair).  Results are
    byte-identical to running each sweep separately.

    ``resume``/``REPRO_RESUME_DIR`` journal the combined queue into one
    file (keys carry the sweep index, so the sweeps never collide) with
    the same kill-and-resume semantics as :func:`run_sweep`.
    """
    sweeps = [(Sweep(master_seed=seed, trials_per_point=trials), xs, trial_fn)
              for seed, trials, xs, trial_fn in specs]
    name = store_name or "__".join(
        _store_name(trial_fn) for _, _, _, trial_fn in specs)
    store = campaign_store(name, campaign_spec(sweeps), resume)
    try:
        if executor is not None:
            return run_flattened(sweeps, executor, store=store)
        with _campaign_executor(jobs, store) as owned:
            return run_flattened(sweeps, owned, store=store)
    finally:
        if store is not None:
            store.close()


@dataclass
class _StarCall:
    """Picklable star-apply: turns ``fn(a, b)`` into a one-argument
    callable over task tuples, so grid experiments need no per-module
    unpacking wrappers."""

    fn: Callable

    def __call__(self, task):
        return self.fn(*task)


def _task_fingerprint(task) -> int:
    """A stable 64-bit id of one grid task (its repr digested) — the seed
    slot of a :func:`map_points` journal key, since these grids have no
    derived seeds of their own."""
    import hashlib

    digest = hashlib.blake2b(repr(task).encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def map_points(fn: Callable, tasks: list, jobs: Optional[int] = None,
               resume: Optional[str] = None,
               store_name: Optional[str] = None) -> list:
    """Ordered, optionally parallel starmap for non-MonteCarlo experiment
    grids (activity/goodput points): ``fn(*task)`` per task tuple.  ``fn``
    must be a module-level callable for process fan-out.

    ``resume``/``REPRO_RESUME_DIR`` journal completed points keyed by
    ``(0, index, 0, fingerprint)`` — the same kill-and-resume contract as
    :func:`run_sweep`, with the task list itself digest-bound so a grid
    change refuses the stale journal.
    """
    spec = {"version": 1, "map": callable_name(fn),
            "tasks": [repr(task) for task in tasks]}
    store = campaign_store(store_name or _store_name(fn), spec, resume)
    try:
        with _campaign_executor(jobs, store) as executor:
            if store is None:
                return executor.map(_StarCall(fn), tasks)
            keys = [(0, index, 0, _task_fingerprint(task))
                    for index, task in enumerate(tasks)]
            return map_with_store(executor, _StarCall(fn), tasks, keys,
                                  store)
    finally:
        if store is not None:
            store.close()


@dataclass
class ExperimentResult:
    """Tabular output of one experiment, paper-comparable.

    Attributes:
        experiment_id: registry key ('fig06', ...).
        title: human title including the paper artefact.
        headers: column names.
        rows: table rows (x value first).
        paper_expectation: what the paper reports for the same artefact.
        notes: methodology notes / deviations.
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    paper_expectation: str = ""
    notes: str = ""

    def to_table(self) -> str:
        """Render as the bench-output table."""
        text = format_table(self.headers, self.rows, title=self.title)
        parts = [text]
        if self.paper_expectation:
            parts.append(f"paper: {self.paper_expectation}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)
