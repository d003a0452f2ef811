"""The local fault-tolerant backend: a process pool that survives faults.

:class:`ResilientExecutor` is the one multi-process local
:class:`~repro.stats.executor.Executor`, with the same determinism
contract as the sequential reference — same ordered result list at any
job count — plus the robustness a long campaign needs:

* **Worker death** (``BrokenProcessPool`` — OOM kill, segfault, chaos
  crash): the pool is rebuilt and every unfinished chunk is re-leased,
  up to ``max_pool_rebuilds`` times; past the budget the journal is
  checkpointed and the error propagates, so a resumed run loses at most
  the chunks that were in flight.
* **Stragglers / hangs**: each chunk lease carries a deadline
  (``chunk_timeout_s``); an overdue chunk is re-dispatched to another
  worker.  First completion wins — duplicates are byte-identical because
  trials are pure functions of their seeds, so re-dispatch is free.
* **Transient trial failures** (:class:`~repro.stats.chaos.ChaosError`,
  or any exception escaping a trial): bounded retry with exponential
  backoff; on exhaustion the failure surfaces as a
  :class:`~repro.stats.montecarlo.TrialExecutionError` carrying the
  ``(sweep, point, trial, seed)`` replay coordinates, after a warning
  that quotes the replay seed — at any job count.
* **Interrupts** (Ctrl-C): the in-memory journal is flushed to its last
  consistent checkpoint and the pool is shut down with
  ``cancel_futures`` before the ``KeyboardInterrupt`` propagates — a
  killed campaign resumes from the journal with no recompute beyond the
  in-flight chunks.

At one job (or for an unpicklable trial function) the trials run in the
calling process under the same chaos, retry and checkpoint story.
Journal resume, completion-order checkpoints and the journal-backed
progress dict (``{completed, total, cached, retries, redispatches,
pool_rebuilds, last_checkpoint}`` on :attr:`last_progress` and
``on_progress``) come from the keyed-run core in
:mod:`repro.stats.lease`, shared with the distributed fabric.

Deterministic fault injection for testing all of the above lives in
:mod:`repro.stats.chaos` (``REPRO_CHAOS``).
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional

from repro.stats.chaos import ChaosConfig
from repro.stats.executor import default_jobs
from repro.stats.lease import (
    ChunkLease,
    KeyedExecutor,
    KeyedRun,
    retry_or_give_up,
    run_chunk,
)
from repro.stats.store import ResultStore


class ResilientExecutor(KeyedExecutor):
    """Process-pool executor with worker-death recovery, chunk timeouts,
    bounded retry and journal-backed resume.  See the module docstring.

    ``jobs``
        worker processes; None resolves ``REPRO_JOBS`` and <= 0 means one
        per CPU.  An explicit count is honoured verbatim — the env
        override applies only at the
        :func:`~repro.stats.executor.get_executor` entry point.
    ``chunk_size``
        tasks per lease (default: four chunks per worker).
    ``journal``
        default :class:`~repro.stats.store.ResultStore` for :meth:`map` /
        :meth:`map_keyed`; completed chunks are recorded and fsynced as
        they arrive, already-journalled keys are never recomputed.
    ``chaos``
        fault-injection schedule (default: parsed from ``REPRO_CHAOS``).
        A fault schedule without a ledger directory would re-fire in
        every fresh worker, so one is allocated automatically.
    ``chunk_timeout_s``
        straggler deadline per chunk lease; ``None`` disables re-dispatch.
    ``max_retries``
        failed attempts tolerated per chunk before the error surfaces.
    ``backoff_base_s``
        exponential backoff base between retry attempts.
    ``max_pool_rebuilds``
        worker-pool deaths tolerated per ``map`` before giving up (the
        journal is checkpointed first either way).
    ``on_progress``
        callback receiving the journal-backed progress dict after every
        completed chunk.

    The worker pool is created lazily on the first parallel ``map`` and
    reused across calls; :meth:`close` (or the context manager) releases
    it.
    """

    _PROGRESS_COUNTERS = ("retries", "redispatches", "pool_rebuilds")

    def __init__(self, jobs: Optional[int] = None,
                 chunk_size: Optional[int] = None, *,
                 journal: Optional[ResultStore] = None,
                 chaos: Optional[ChaosConfig] = None,
                 chunk_timeout_s: Optional[float] = None,
                 max_retries: int = 2,
                 backoff_base_s: float = 0.25,
                 max_pool_rebuilds: int = 4,
                 on_progress: Optional[Callable[[dict], None]] = None):
        super().__init__(journal=journal, chaos=chaos,
                         max_retries=max_retries,
                         backoff_base_s=backoff_base_s,
                         on_progress=on_progress)
        if jobs is None:
            self.jobs = default_jobs()
        elif jobs <= 0:
            self.jobs = max(1, os.cpu_count() or 1)
        else:
            self.jobs = int(jobs)
        self.chunk_size = chunk_size
        self.chunk_timeout_s = chunk_timeout_s
        self.max_pool_rebuilds = max_pool_rebuilds
        self._pool = None

    # -- the dispatch loop ------------------------------------------------

    def _dispatches(self, n_pending: int) -> bool:
        return self.jobs > 1 and n_pending > 1

    def _dispatch(self, fn, run: KeyedRun) -> None:
        leases = run.leases(self.jobs, self.chunk_size)
        counters = run.counters
        remaining = len(leases)
        future_map: dict = {}

        def _submit(lease: ChunkLease) -> None:
            lease.retry_at = None
            if self.chunk_timeout_s is not None:
                lease.deadline = time.monotonic() + self.chunk_timeout_s
            future = self._ensure_pool().submit(
                run_chunk, fn, lease.items, lease.keys, self.chaos)
            future_map[future] = lease

        def _rebuild_pool() -> None:
            counters["pool_rebuilds"] += 1
            if counters["pool_rebuilds"] > self.max_pool_rebuilds:
                raise BrokenProcessPool(
                    f"worker pool died {counters['pool_rebuilds']} times "
                    f"(budget {self.max_pool_rebuilds}); journal "
                    "checkpointed — rerun to resume from it")
            self._abort_pool()
            future_map.clear()  # every outstanding future died with the pool
            for lease in leases:
                if not lease.done and lease.retry_at is None:
                    _submit(lease)

        try:
            for lease in leases:
                _submit(lease)
            while remaining:
                if future_map:
                    done_set, _ = wait(list(future_map), timeout=0.05,
                                       return_when=FIRST_COMPLETED)
                else:
                    done_set = set()
                    time.sleep(0.005)
                broken = False
                for future in done_set:
                    lease = future_map.pop(future)
                    if lease.done:
                        continue  # a duplicate already won this lease
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken = True
                    except Exception as error:
                        retry_or_give_up(lease, error, self.max_retries,
                                         self.backoff_base_s, counters)
                    else:
                        lease.done = True
                        remaining -= 1
                        run.complete(lease, payload)
                if broken:
                    _rebuild_pool()
                    continue
                now = time.monotonic()
                for lease in leases:
                    if lease.done:
                        continue
                    if lease.retry_at is not None and now >= lease.retry_at:
                        _submit(lease)
                    elif (lease.deadline is not None
                          and lease.retry_at is None
                          and now >= lease.deadline):
                        # straggler: re-lease to another worker; first
                        # completion wins, the loser is discarded
                        lease.attempts += 1
                        if lease.attempts > self.max_retries:
                            raise TimeoutError(
                                f"chunk over its {self.chunk_timeout_s}s "
                                f"deadline {lease.attempts} times; journal "
                                "checkpointed — rerun to resume")
                        counters["redispatches"] += 1
                        _submit(lease)
        except BaseException:
            # the clean-kill path (the caller checkpoints the journal):
            # drop the pool so nothing keeps computing results nobody
            # will collect
            self._abort_pool()
            raise

    # -- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # prefer fork where available: workers inherit the parent's
            # in-memory module state, so runtime-patched experiment
            # constants (test fixtures, notebooks) behave identically in
            # and out of process — spawn/forkserver re-import and would
            # silently diverge from the sequential path
            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:
                warnings.warn(
                    "fork start method unavailable; spawn workers re-import "
                    "modules, so runtime-patched experiment state will not "
                    "reach them and parallel results may diverge from the "
                    "sequential path", RuntimeWarning, stacklevel=3)
            self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                             mp_context=context)
        return self._pool

    def _abort_pool(self) -> None:
        """Drop the pool without waiting: cancel queued work, leave no
        reference behind so the next submit builds a fresh pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
