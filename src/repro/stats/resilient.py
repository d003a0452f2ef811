"""The in-process keyed executor: journal, chaos, retry and progress.

:class:`ResilientExecutor` runs every trial in the calling process under
the fault story of a dispatched chunk:

* **Journal resume** — journalled keys are never recomputed; fresh
  completions are recorded and fsynced one trial at a time, so a killed
  campaign resumes from its last checkpoint.
* **Chaos** — :mod:`repro.stats.chaos` (``REPRO_CHAOS``) injects its
  faults before each trial, so a jobs=1 campaign dies and resumes like a
  parallel one.
* **Transient trial failures** (:class:`~repro.stats.chaos.ChaosError`,
  or any exception escaping a trial): bounded retry with exponential
  backoff; on exhaustion the failure surfaces as a
  :class:`~repro.stats.montecarlo.TrialExecutionError` carrying the
  ``(sweep, point, trial, seed)`` replay coordinates, after a warning
  that quotes the replay seed.
* **Interrupts** (Ctrl-C): the journal is flushed to its last consistent
  checkpoint before the ``KeyboardInterrupt`` propagates.

All of it is the keyed-run core of :mod:`repro.stats.lease`, shared with
:class:`~repro.stats.fabric.FabricExecutor` — the one multi-process
backend, which leases the same chunks to forked loopback workers
(``--jobs N``) or to TCP workers on other hosts, and owns the only
lease-and-recover loop (worker death, missed heartbeats, stragglers).
The journal-backed progress dict (``{completed, total, cached, retries,
redispatches, last_checkpoint}``) is published on :attr:`last_progress`
and ``on_progress``.
"""

from __future__ import annotations

from repro.stats.lease import KeyedExecutor


class ResilientExecutor(KeyedExecutor):
    """In-process keyed executor.  See the module docstring.

    ``journal``
        default :class:`~repro.stats.store.ResultStore` for :meth:`map` /
        :meth:`map_keyed`.
    ``chaos``
        fault-injection schedule (default: parsed from ``REPRO_CHAOS``).
    ``max_retries``
        failed attempts tolerated per trial before the error surfaces
        (default 2).
    ``backoff_base_s``
        exponential backoff base between retry attempts (default 0.25).
    ``on_progress``
        callback receiving the journal-backed progress dict after every
        completed trial.

    Every option is keyword-only and inherited from the keyed-run core;
    the class adds no dispatch, so it is exactly that core's in-process
    path under its own name.
    """
