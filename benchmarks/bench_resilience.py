"""Bench: fault-injection smoke — a chaos-killed, resumed campaign.

The fault-tolerance acceptance property at bench scale: the dense
deployment campaign is run on two forked fabric workers (what
``--jobs 2`` selects) under a ``REPRO_CHAOS`` schedule that crashes
every worker mid-run with the respawn budget zeroed, so the campaign
dies mid-flight (``FabricError``) with a checkpointed result journal.
A single resume then finishes the journal, and the resumed table must
be byte-identical (pickled rows) to an uninterrupted sequential run.
The timed quantity is the whole kill + resume story, so the archived
number tracks the recovery overhead, not just the happy path.

Scale via ``REPRO_TRIALS`` like every other bench (CI runs this with
``REPRO_TRIALS=2``).
"""

from __future__ import annotations

import os
import pickle

from benchmarks.conftest import run_once
from repro.experiments import ext_interference
from repro.experiments.common import run_sweep
from repro.stats.chaos import CHAOS_ENV_VAR, ChaosConfig
from repro.stats.executor import JOBS_ENV_VAR
from repro.stats.fabric import FabricError, FabricExecutor
from repro.stats.montecarlo import default_trials
from repro.stats.sweep import Sweep, flat_tasks

SEED = 22  # ext_interference.run's default, so the spec digests line up
JOBS = 2


def _early_crash_env(tasks, state_dir: str) -> str:
    """A ``REPRO_CHAOS`` value whose schedule crashes exactly ``JOBS``
    trials, all in the first half of the task queue: each fault fires
    once and kills the worker running it, so every worker dies early —
    found by deterministic scan, so the bench kills at the same point on
    every host."""
    seeds = [task[3] for task in tasks]
    early = set(seeds[:len(seeds) // 2])
    for chaos_seed in range(20000):
        plan = ChaosConfig(seed=chaos_seed, crash=0.1).schedule(seeds)
        if len(plan) == JOBS and set(plan) <= early:
            return f"seed={chaos_seed},crash=0.1,state={state_dir}"
    raise AssertionError("no early-crash chaos seed found")


def bench_resilience_kill_resume(benchmark, bench_report, tmp_path,
                                 monkeypatch):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)

    trials = default_trials(4)
    xs = [(float(count), str(count))
          for count in ext_interference.PICONET_COUNTS]
    tasks, _ = flat_tasks([(Sweep(master_seed=SEED, trials_per_point=trials),
                            xs, ext_interference.run_trial)])
    chaos_env = _early_crash_env(tasks, str(tmp_path / "ledger"))
    resume_dir = str(tmp_path / "journals")
    journal = os.path.join(resume_dir, "ext_interference.jsonl")

    def kill_and_resume():
        # the bytes the resumed run must reproduce
        sequential = ext_interference.run(trials=trials, seed=SEED, jobs=1)

        # kill: REPRO_CHAOS schedules the worker crashes; a zeroed respawn
        # budget turns them into a campaign death (after checkpointing)
        chaos = ChaosConfig.from_env(chaos_env)
        with FabricExecutor(workers=JOBS, chaos=chaos,
                            max_worker_respawns=0) as executor:
            try:
                run_sweep(SEED, trials, xs, ext_interference.run_trial,
                          executor=executor, resume=resume_dir,
                          store_name="ext_interference")
            except FabricError:
                pass
            else:
                raise AssertionError("chaos crash did not kill the run")
        assert os.path.exists(journal), "kill must leave a checkpoint"

        # resume once, digest vs the sequential reference
        resumed = ext_interference.run(trials=trials, seed=SEED, jobs=JOBS,
                                       resume=resume_dir)
        assert pickle.dumps(resumed.rows) == pickle.dumps(sequential.rows), \
            "resumed campaign must be byte-identical to the sequential run"
        return resumed

    result = run_once(benchmark, kill_and_resume)
    bench_report(result)
    assert [row[0] for row in result.rows] \
        == list(ext_interference.PICONET_COUNTS)
    assert all(row[-1] == f"{trials}/{trials}" for row in result.rows)
