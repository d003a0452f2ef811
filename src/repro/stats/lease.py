"""The keyed-run core shared by the fault-tolerant executors.

A **keyed run** maps a trial function over tasks addressed by their
``(sweep, point, trial, seed)`` journal keys.  :class:`KeyedExecutor`
owns everything about such a run that does not depend on *where* the
trials execute:

* key validation and the journal pre-scan — journalled keys are never
  recomputed;
* ordered ``progress`` emission and the journal-backed progress dict
  (:attr:`~KeyedExecutor.last_progress`, ``on_progress``);
* per-chunk record and flush, in completion order, so a kill never
  discards a chunk that already finished;
* the in-process path (one job, or an unpicklable trial function): chaos
  injection before each trial, coordinate-tagged errors and bounded
  backoff retry, exactly like a dispatched chunk;
* the give-up/backoff rule of a failed chunk (:func:`retry_or_give_up`).

:class:`~repro.stats.resilient.ResilientExecutor` is that core with no
dispatch at all (every trial in the calling process).
:class:`~repro.stats.fabric.FabricExecutor` adds the one dispatch loop:
it leases :class:`ChunkLease` records to forked loopback workers or TCP
workers on any host, each running the same chunk body
(:func:`run_chunk`) — so a task journalled by one executor resumes under
the other, and chaos injection behaves identically in a fabric worker
and in the calling process.
"""

from __future__ import annotations

import math
import pickle
import tempfile
import time
import warnings
from typing import Any, Callable, Optional, Sequence

from repro.stats.chaos import (
    FAULT_KINDS,
    ChaosConfig,
    ChaosError,
    maybe_inject,
)
from repro.stats.executor import Executor
from repro.stats.montecarlo import TrialExecutionError
from repro.stats.store import ResultStore

#: Target number of chunks handed to each worker; >1 keeps the workers
#: busy when per-trial wall-clock varies (high-BER trials run longer).
_CHUNKS_PER_JOB = 4


class ChunkLease:
    """One dispatched chunk: its item indices and retry state.

    The base fields drive the retry bookkeeping of every keyed executor;
    the fabric additionally tracks which workers hold the lease
    (``owners``), when it was last assigned (``assigned_at``) and how
    many duplicate assignments were stolen onto idle workers
    (``steals``).  First completion wins either way — duplicates are
    byte-identical because trials are pure functions of their seeds.
    """

    __slots__ = ("lease_id", "indices", "items", "keys", "attempts",
                 "retry_at", "done", "owners", "assigned_at", "steals")

    def __init__(self, indices: list, items: list, keys: list,
                 lease_id: int = 0):
        self.lease_id = lease_id
        self.indices = indices
        self.items = items
        self.keys = keys
        self.attempts = 0       # failed attempts so far
        self.retry_at = None    # monotonic backoff gate (failed leases)
        self.done = False
        self.owners: set = set()    # worker ids currently holding the lease
        self.assigned_at = None     # monotonic time of the last assignment
        self.steals = 0             # duplicate assignments so far


def run_chunk(fn: Callable[[Any], Any], chunk: list, keys: list,
              chaos: Optional[ChaosConfig]) -> list:
    """Chunk body: chaos injection + coordinate-tagged errors.

    Injection happens *before* the trial function runs, so trial outcomes
    are never perturbed — a completed chaos campaign stays byte-identical
    to a clean one.  Any exception escaping the trial is wrapped with its
    journal key so the caller can quote the replay seed.  Shared verbatim
    by the fabric workers and the in-process path.
    """
    results = []
    for item, key in zip(chunk, keys):
        maybe_inject(chaos, key[3])
        try:
            results.append(fn(item))
        except (TrialExecutionError, ChaosError, KeyboardInterrupt,
                SystemExit):
            raise
        except Exception as error:
            raise TrialExecutionError(key[0], key[1], key[2], key[3],
                                      repr(error)) from error
    return results


def retry_or_give_up(lease: ChunkLease, error: BaseException,
                     max_retries: int, backoff_base_s: float,
                     counters: dict) -> None:
    """Charge ``lease`` one failed attempt.

    Within the ``max_retries`` budget the failure counts as a retry and
    the lease is gated behind exponential backoff (``retry_at``).  Past
    it ``error`` is raised — after a warning quoting the replay seed when
    it carries trial coordinates.
    """
    lease.attempts += 1
    if lease.attempts > max_retries:
        if isinstance(error, TrialExecutionError):
            warnings.warn(
                f"chunk failed {lease.attempts} times; giving up — "
                f"replay the failing trial with seed {error.seed:#018x}",
                RuntimeWarning, stacklevel=3)
        raise error
    counters["retries"] += 1
    lease.retry_at = time.monotonic() + \
        backoff_base_s * (2 ** (lease.attempts - 1))


class KeyedRun:
    """The bookkeeping of one :meth:`KeyedExecutor.map_keyed` call:
    results, the pending list, ordered progress and journal checkpoints."""

    def __init__(self, executor: "KeyedExecutor", items: Sequence,
                 keys: Sequence, progress, journal: Optional[ResultStore]):
        self.items = list(items)
        self.keys = [tuple(key) for key in keys]
        if len(self.items) != len(self.keys):
            raise ValueError(
                f"{len(self.items)} items but {len(self.keys)} keys")
        self.executor = executor
        self.progress = progress
        self.journal = journal
        self.counters = executor.counters = executor._new_counters()
        self.results: list = [None] * len(self.items)
        cached = journal.lookup(self.keys) if journal is not None else {}
        for index, result in cached.items():
            self.results[index] = result
        self.have = set(cached)
        self.cached = len(cached)
        self.pending = [index for index in range(len(self.items))
                        if index not in self.have]
        self._next_emit = 0
        if cached:
            self._report()  # surface "resumed at cached/total" up front

    def leases(self, jobs: int, chunk_size: Optional[int] = None) -> list:
        """The pending tasks sliced, in queue order, into chunk leases of
        ``chunk_size`` tasks — by default the load-balancing size of
        ``_CHUNKS_PER_JOB`` chunks per worker."""
        pending = self.pending
        if chunk_size is None:
            chunk_size = math.ceil(len(pending) / (jobs * _CHUNKS_PER_JOB))
        size = max(1, chunk_size)
        return [
            ChunkLease(indices=pending[lo:lo + size],
                       items=[self.items[i] for i in pending[lo:lo + size]],
                       keys=[self.keys[i] for i in pending[lo:lo + size]],
                       lease_id=lease_id)
            for lease_id, lo in enumerate(range(0, len(pending), size))
        ]

    def complete(self, lease: ChunkLease, payload: list) -> None:
        """Record a finished chunk: results, journal checkpoint, progress."""
        journal = self.journal
        for key, index, result in zip(lease.keys, lease.indices, payload):
            self.results[index] = result
            self.have.add(index)
            if journal is not None:
                journal.record(key, result)
        if journal is not None:
            journal.flush()  # the checkpoint: this chunk is durable
        self._report()

    def _report(self) -> None:
        """Fire ``progress`` for the contiguous prefix now available, then
        publish the journal-backed progress dict."""
        total = len(self.results)
        while self._next_emit < total and self._next_emit in self.have:
            if self.progress is not None:
                self.progress(self._next_emit, self.results[self._next_emit])
            self._next_emit += 1
        executor = self.executor
        status = {"completed": len(self.have), "total": total,
                  "cached": self.cached}
        for name in executor._PROGRESS_COUNTERS:
            status[name] = self.counters[name]
        status["last_checkpoint"] = (self.journal.last_checkpoint
                                     if self.journal is not None else None)
        executor.last_progress = status
        if executor.on_progress is not None:
            executor.on_progress(dict(status))


class KeyedExecutor(Executor):
    """An executor over keyed tasks with journal resume, chaos and retry.

    ``chaos`` defaults to ``REPRO_CHAOS``; a schedule with any of the
    :attr:`_LEDGER_KINDS` faults but no ledger directory gets one
    allocated, since retried chunks migrate between processes and a
    process-local ledger would re-fire the same fault in each of them.
    On its own it runs every trial in the calling process; a dispatching
    subclass overrides :meth:`_dispatches` and :meth:`_dispatch`.
    """

    #: counters reported in the progress dict, in report order.
    _PROGRESS_COUNTERS: tuple = ("retries", "redispatches")
    #: chaos fault kinds whose fire-once claims need a durable ledger.
    _LEDGER_KINDS: tuple = FAULT_KINDS

    def __init__(self, *, journal: Optional[ResultStore] = None,
                 chaos: Optional[ChaosConfig] = None, max_retries: int = 2,
                 backoff_base_s: float = 0.25,
                 on_progress: Optional[Callable[[dict], None]] = None):
        if chaos is None:
            chaos = ChaosConfig.from_env()
        if (chaos is not None and chaos.state_dir is None
                and any(getattr(chaos, kind) > 0
                        for kind in self._LEDGER_KINDS)):
            chaos = chaos.with_state_dir(
                tempfile.mkdtemp(prefix="repro-chaos-"))
        if chaos is not None:
            # a campaign start, not a resume of this executor's own run:
            # expire stale fire-once claims left by earlier campaigns so
            # the schedule is live again (see ChaosConfig.begin_run)
            chaos.begin_run()
        self.journal = journal
        self.chaos = chaos
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.on_progress = on_progress
        #: counters of the most recent ``map_keyed``.
        self.counters: dict = self._new_counters()
        #: journal-backed progress of the most recent ``map_keyed``; None
        #: before one ran.
        self.last_progress: Optional[dict] = None

    def _new_counters(self) -> dict:
        return dict.fromkeys(self._PROGRESS_COUNTERS, 0)

    # -- public entry points ---------------------------------------------

    def map(self, fn, items, progress=None) -> list:
        """Ordered map with synthetic journal keys ``(0, 0, i, seed)``.

        ``seed`` is the item itself when it is an integer (the common
        seed-list case), else the index — enough for chaos scheduling and
        single-campaign journals.  Prefer :meth:`map_keyed` with real
        ``(sweep, point, trial, seed)`` coordinates for campaign grids.
        """
        items = list(items)
        keys = [(0, 0, index, item if isinstance(item, int) else index)
                for index, item in enumerate(items)]
        return self.map_keyed(fn, items, keys, progress=progress)

    def map_keyed(self, fn, items: Sequence, keys: Sequence,
                  progress=None, journal: Optional[ResultStore] = None
                  ) -> list:
        """Ordered map over keyed tasks with journal resume + recovery.

        ``keys[i]`` is ``items[i]``'s ``(sweep, point, trial, seed)``
        journal address; results already journalled (in ``journal``, else
        the executor's own) are returned without recompute.  Fresh
        completions are recorded and checkpointed chunk by chunk in
        completion order; any escape checkpoints the journal first.
        """
        run = KeyedRun(self, items, keys, progress,
                       self.journal if journal is None else journal)
        if not run.pending:
            return run.results
        try:
            if self._dispatches(len(run.pending)) and self._picklable(fn):
                self._dispatch(fn, run)
            else:
                self._run_in_process(fn, run)
        except BaseException:
            if run.journal is not None:
                run.journal.flush()
            raise
        return run.results

    # -- the subclass contract -------------------------------------------

    def _dispatches(self, n_pending: int) -> bool:
        """Whether ``n_pending`` tasks go to :meth:`_dispatch` (never, for
        the in-process base)."""
        return False

    def _dispatch(self, fn, run: KeyedRun) -> None:
        """Compute ``run.pending``, reporting chunks via ``run.complete``."""
        raise NotImplementedError

    # -- shared paths ----------------------------------------------------

    def _picklable(self, fn) -> bool:
        try:
            pickle.dumps(fn)
        except Exception:
            warnings.warn(
                f"{fn!r} is not picklable; {type(self).__name__} falling "
                "back to the sequential path", RuntimeWarning, stacklevel=3)
            return False
        return True

    def _run_in_process(self, fn, run: KeyedRun) -> None:
        """Every pending trial in the calling process, each a one-task
        chunk under the dispatched fault story: chaos injection before the
        trial (a jobs=1 campaign under ``REPRO_CHAOS`` dies and resumes
        like a parallel one), replay-tagged errors and bounded backoff
        retry."""
        for index in run.pending:
            lease = ChunkLease([index], [run.items[index]], [run.keys[index]])
            while True:
                try:
                    payload = run_chunk(fn, lease.items, lease.keys,
                                        self.chaos)
                except Exception as error:
                    retry_or_give_up(lease, error, self.max_retries,
                                     self.backoff_base_s, run.counters)
                    time.sleep(max(0.0, lease.retry_at - time.monotonic()))
                else:
                    break
            run.complete(lease, payload)
