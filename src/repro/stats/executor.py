"""Pluggable execution backends for Monte-Carlo trials and sweeps.

Every trial in this codebase is a pure function of its derived seed, so a
batch of trials can run on one core or many and must produce *the same*
ordered outcome list either way.  Three backends implement the
:class:`Executor` interface:

* :class:`SequentialExecutor` (here) — the reference implementation, a
  plain ordered loop on the calling process;
* :class:`~repro.stats.resilient.ResilientExecutor` — the in-process
  keyed executor: journal resume, chaos injection and bounded retry for
  jobs=1 campaigns that journal, inject chaos or report progress;
* :class:`~repro.stats.fabric.FabricExecutor` — the one multi-process
  backend: the same keyed-run core (:mod:`repro.stats.lease`) leasing
  chunks to forked loopback workers (``--jobs N``) or TCP workers on any
  host, recovering from worker death, missed heartbeats and stragglers.

Determinism contract: for any picklable ``fn`` and item list, every
executor returns ``[fn(item) for item in items]`` — same values, same
order, independent of the job count.  The equivalence suite
(``tests/stats/test_executor_equivalence.py``) enforces this for every
registered experiment.

The job count is resolved like trial counts: the ``REPRO_JOBS``
environment variable (mirroring ``REPRO_TRIALS``) overrides whatever the
caller requested, and the CLI exposes ``--jobs``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional, Sequence

#: Environment knob: fan trials out over this many worker processes.
JOBS_ENV_VAR = "REPRO_JOBS"


def default_jobs(requested: Optional[int] = None) -> int:
    """Resolve the worker count: ``REPRO_JOBS`` overrides ``requested``.

    Returns 1 (sequential) when neither is set.  A value of 0 or ``"auto"``
    in the environment means "one job per CPU".
    """
    override = os.environ.get(JOBS_ENV_VAR)
    if override:
        if override.strip().lower() == "auto" or int(override) <= 0:
            return max(1, os.cpu_count() or 1)
        return int(override)
    if requested is not None:
        if requested <= 0:
            return max(1, os.cpu_count() or 1)
        return requested
    return 1


class Executor:
    """Interface: an ordered, deterministic map over trial inputs."""

    jobs: int = 1

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            progress: Optional[Callable[[int, Any], None]] = None) -> list:
        """Return ``[fn(item) for item in items]`` (order guaranteed).

        ``progress(index, result)`` is invoked in index order; under a
        parallel backend it fires as ordered results become available, not
        as workers finish — in whole-chunk bursts, and not at all for
        chunks that completed out of order until the gap before them
        closes.  Callers needing liveness rather than ordered streaming
        (monitoring, checkpoint telemetry) should use the keyed
        executors' journal-backed ``on_progress`` hook, which reports
        completed/total counts in completion order.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker processes); idempotent."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequentialExecutor(Executor):
    """The reference backend: run every trial in the calling process."""

    def map(self, fn, items, progress=None) -> list:
        results = []
        for index, item in enumerate(items):
            result = fn(item)
            results.append(result)
            if progress is not None:
                progress(index, result)
        return results


def get_executor(jobs: Optional[int] = None) -> Executor:
    """The backend for a resolved job count: the sequential reference at
    1, a :class:`~repro.stats.fabric.FabricExecutor` with that many forked
    loopback workers above."""
    from repro.stats.fabric import FabricExecutor  # imports us

    resolved = default_jobs(jobs)
    if resolved <= 1:
        return SequentialExecutor()
    return FabricExecutor(workers=resolved)
