"""Keyed-executor recovery tests under deterministic chaos.

Two backends share the keyed-run core: the in-process
:class:`ResilientExecutor` (jobs=1) and the fabric of forked loopback
workers that :func:`get_executor` returns above one job.  Every test
pins the same bar on whichever backend its job count selects: whatever
faults are injected — worker crashes, hangs, transient exceptions,
interrupts — a run that completes returns exactly the sequential
reference results, and a run that dies leaves a journal a fresh run
finishes from.
"""

from __future__ import annotations

import os
import warnings

import pytest

from repro.stats.chaos import ChaosConfig, ChaosError
from repro.stats.executor import SequentialExecutor
from repro.stats.fabric import FabricError, FabricExecutor
from repro.stats.montecarlo import TrialExecutionError
from repro.stats.resilient import ResilientExecutor
from repro.stats.store import ResultStore, campaign_digest

SPEC_DIGEST = campaign_digest({"campaign": "resilient-tests"})

#: The keyed task grid every test maps over: (sweep, point, trial, seed).
TASKS = [(0, index // 8, index % 8, 0x5000 + index) for index in range(32)]


def _square(task):
    """Module-level (hence picklable) trial body: a pure seed function."""
    return task[3] * task[3]


def _fragile(task):
    """Fails permanently at one specific trial coordinate."""
    if task[2] == 5 and task[1] == 1:
        raise ValueError("persistent trial bug")
    return task[3] * task[3]


class _CountingTrial:
    """Picklable wrapper counting executions via an O_APPEND side file —
    fork-safe, so worker-side executions are visible to the test."""

    def __init__(self, path):
        self.path = path

    def __call__(self, task):
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(f"{task[3]:#x}\n")
        return _square(task)


def _executions(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as stream:
        return stream.read().split()


REFERENCE = [seed * seed for _, _, _, seed in TASKS]


def _executor(jobs: int, **options):
    """The keyed backend of a job count: in-process at one job, forked
    loopback fabric workers above (what ``--jobs`` selects)."""
    if jobs == 1:
        options.pop("chunk_size", None)
        return ResilientExecutor(**options)
    return FabricExecutor(workers=jobs, **options)


def _chaos_seed_with(kind: str, rate: float, count: int = None) -> int:
    """A chaos seed whose schedule over TASKS has faults of only ``kind``
    (optionally exactly ``count`` of them) — deterministic scan."""
    seeds = [task[3] for task in TASKS]
    for chaos_seed in range(20000):
        config = ChaosConfig(seed=chaos_seed, **{kind: rate})
        plan = config.schedule(seeds)
        if plan and (count is None or len(plan) == count):
            return chaos_seed
    raise AssertionError("no suitable chaos seed found")


class TestDeterminism:
    def test_matches_sequential_reference(self):
        with _executor(4) as executor:
            assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE
        with _executor(1) as executor:
            assert executor.map_keyed(_square, TASKS, TASKS) == REFERENCE

    def test_plain_map_uses_synthetic_keys(self):
        with _executor(2) as executor:
            assert executor.map(_square, TASKS) == REFERENCE
        with _executor(1) as executor:
            assert executor.map(_square, TASKS) == REFERENCE

    def test_mismatched_keys_rejected(self):
        for jobs in (1, 2):
            with _executor(jobs) as executor:
                with pytest.raises(ValueError, match="items but"):
                    executor.map_keyed(_square, TASKS, TASKS[:-1])

    def test_unpicklable_fn_degrades_to_sequential(self):
        with _executor(4) as executor:
            with pytest.warns(RuntimeWarning, match="not picklable"):
                got = executor.map_keyed(lambda task: task[3] * task[3],
                                         TASKS, TASKS)
        assert got == REFERENCE

    def test_ordered_progress_callback_covers_every_index(self):
        seen = []
        with _executor(4) as executor:
            executor.map_keyed(_square, TASKS, TASKS,
                               progress=lambda i, r: seen.append((i, r)))
        assert seen == list(enumerate(REFERENCE))


class TestJournalResume:
    def test_journalled_results_skip_recompute(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        count_path = str(tmp_path / "executions.log")
        fn = _CountingTrial(count_path)
        with ResultStore(journal_path, SPEC_DIGEST) as journal:
            with _executor(2) as executor:
                first = executor.map_keyed(fn, TASKS, TASKS, journal=journal)
        assert first == REFERENCE
        assert len(_executions(count_path)) == len(TASKS)

        with ResultStore(journal_path, SPEC_DIGEST) as journal:
            with _executor(2) as executor:
                again = executor.map_keyed(fn, TASKS, TASKS, journal=journal)
                assert executor.last_progress["cached"] == len(TASKS)
        assert again == REFERENCE
        assert len(_executions(count_path)) == len(TASKS)  # zero recompute

    def test_partial_journal_computes_only_the_gap(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        count_path = str(tmp_path / "executions.log")
        with ResultStore(journal_path, SPEC_DIGEST) as journal:
            for task in TASKS[:20]:
                journal.record(task, _square(task))
        with ResultStore(journal_path, SPEC_DIGEST) as journal:
            with _executor(2) as executor:
                got = executor.map_keyed(_CountingTrial(count_path), TASKS,
                                         TASKS, journal=journal)
            assert len(journal) == len(TASKS)
        assert got == REFERENCE
        assert len(_executions(count_path)) == len(TASKS) - 20


class TestWorkerDeathRecovery:
    def test_worker_respawned_and_results_identical(self, tmp_path):
        # one worker: no survivor can absorb the crashed worker's lease,
        # so the campaign completes only through a respawn
        chaos = ChaosConfig(seed=_chaos_seed_with("crash", 0.1),
                            crash=0.1, state_dir=str(tmp_path / "ledger"))
        with FabricExecutor(workers=1, chaos=chaos,
                            max_worker_respawns=10) as executor:
            got = executor.map_keyed(_square, TASKS, TASKS)
            assert executor.last_progress["respawns"] >= 1
        assert got == REFERENCE

    def test_respawn_budget_exhaustion_checkpoints_and_raises(self, tmp_path):
        # two crash faults kill both workers (each dies once, and every
        # fault fires once), and the zero budget respawns neither
        journal_path = str(tmp_path / "journal.jsonl")
        chaos = ChaosConfig(seed=_chaos_seed_with("crash", 0.1, count=2),
                            crash=0.1, state_dir=str(tmp_path / "ledger"))
        with ResultStore(journal_path, SPEC_DIGEST) as journal:
            with FabricExecutor(workers=2, chaos=chaos,
                                max_worker_respawns=0) as executor:
                with pytest.raises(FabricError, match="rerun to resume"):
                    executor.map_keyed(_square, TASKS, TASKS, journal=journal)
            completed_at_kill = len(journal)
        assert completed_at_kill < len(TASKS)

        # the journal is a valid checkpoint: a clean rerun finishes from it
        with ResultStore(journal_path, SPEC_DIGEST) as journal:
            with _executor(2) as executor:
                got = executor.map_keyed(_square, TASKS, TASKS,
                                         journal=journal)
        assert got == REFERENCE


class TestTransientFaultRetry:
    def test_chaos_exceptions_retried_to_success(self, tmp_path):
        chaos = ChaosConfig(seed=_chaos_seed_with("exc", 0.15),
                            exc=0.15, state_dir=str(tmp_path / "ledger"))
        with _executor(3, chaos=chaos, max_retries=4,
                       backoff_base_s=0.01) as executor:
            got = executor.map_keyed(_square, TASKS, TASKS)
            assert executor.last_progress["retries"] >= 1
        assert got == REFERENCE

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhausted_retries_surface_replay_coordinates(self, jobs):
        with _executor(jobs, chunk_size=1, max_retries=1,
                       backoff_base_s=0.01) as executor:
            with pytest.warns(RuntimeWarning, match="replay the failing"):
                with pytest.raises(TrialExecutionError) as excinfo:
                    executor.map_keyed(_fragile, TASKS, TASKS)
        error = excinfo.value
        failing = next(task for task in TASKS
                       if task[1] == 1 and task[2] == 5)
        assert error.key == failing
        assert f"{failing[3]:#018x}" in str(error)

    def test_trial_error_pickles_with_coordinates(self):
        import pickle

        error = TrialExecutionError(1, 2, 3, 0xABC, "ValueError('x')")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.key == error.key
        assert str(clone) == str(error)


class TestStragglerRedispatch:
    def test_hung_chunk_stolen_first_completion_wins(self, tmp_path):
        chaos = ChaosConfig(seed=_chaos_seed_with("hang", 0.08, count=1),
                            hang=0.08, hang_s=1.5,
                            state_dir=str(tmp_path / "ledger"))
        with FabricExecutor(workers=3, chaos=chaos, steal_after_s=0.3,
                            max_retries=4) as executor:
            got = executor.map_keyed(_square, TASKS, TASKS)
            assert executor.last_progress["leases_stolen"] >= 1
        assert got == REFERENCE


class TestInterruptCheckpoint:
    def test_interrupt_flushes_journal_and_stops_workers(self, tmp_path):
        import multiprocessing

        journal_path = str(tmp_path / "journal.jsonl")

        def interrupt_after_first_fresh_chunk(progress):
            if progress["completed"] - progress["cached"] >= 1:
                raise KeyboardInterrupt

        executor = _executor(2, chunk_size=2,
                             on_progress=interrupt_after_first_fresh_chunk)
        with ResultStore(journal_path, SPEC_DIGEST) as journal:
            with pytest.raises(KeyboardInterrupt):
                executor.map_keyed(_square, TASKS, TASKS, journal=journal)
            assert journal.last_checkpoint is not None
        # no worker outlives the interrupt, computing results nobody
        # will collect
        assert multiprocessing.active_children() == []

        # resume: the interrupted journal completes to the reference
        with ResultStore(journal_path, SPEC_DIGEST) as journal:
            assert 0 < len(journal) < len(TASKS)
            with _executor(2) as clean:
                got = clean.map_keyed(_square, TASKS, TASKS, journal=journal)
        assert got == REFERENCE

    def test_sequential_interrupt_also_checkpoints(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")

        class _Interrupting:
            def __init__(self):
                self.calls = 0

            def __call__(self, task):
                self.calls += 1
                if self.calls > 3:
                    raise KeyboardInterrupt
                return _square(task)

        with ResultStore(journal_path, SPEC_DIGEST) as journal:
            with _executor(1) as executor:
                with pytest.raises(KeyboardInterrupt):
                    executor.map_keyed(_Interrupting(), TASKS, TASKS,
                                       journal=journal)
        with ResultStore(journal_path, SPEC_DIGEST) as journal:
            assert len(journal) == 3


class TestProgressReporting:
    def test_journal_backed_progress_shape(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        snapshots = []
        with ResultStore(journal_path, SPEC_DIGEST) as journal:
            for task in TASKS[:8]:
                journal.record(task, _square(task))
        with ResultStore(journal_path, SPEC_DIGEST) as journal:
            with _executor(2, on_progress=snapshots.append) as executor:
                executor.map_keyed(_square, TASKS, TASKS, journal=journal)
        assert snapshots[0]["cached"] == 8  # "resumed at 8/32" surfaced first
        assert snapshots[0]["completed"] == 8
        final = snapshots[-1]
        assert final["completed"] == final["total"] == len(TASKS)
        assert final["last_checkpoint"] is not None
        assert {"retries", "redispatches", "respawns"} <= set(final)

    def test_chaos_config_resolved_from_env(self, monkeypatch, tmp_path):
        from repro.stats.chaos import CHAOS_ENV_VAR

        monkeypatch.setenv(CHAOS_ENV_VAR,
                           f"seed=5,exc=0.5,state={tmp_path / 'ledger'}")
        executor = ResilientExecutor()
        assert executor.chaos == ChaosConfig(
            seed=5, exc=0.5, state_dir=str(tmp_path / "ledger"))
        executor.close()

    def test_env_chaos_auto_allocates_fire_once_ledger(self, monkeypatch):
        from repro.stats.chaos import CHAOS_ENV_VAR

        monkeypatch.setenv(CHAOS_ENV_VAR, "seed=5,crash=0.1")
        executor = ResilientExecutor()
        # a crash schedule without a durable ledger would re-kill forever
        assert executor.chaos.state_dir is not None
        executor.close()
