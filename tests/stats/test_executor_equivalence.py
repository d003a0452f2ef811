"""Parallel-vs-sequential determinism equivalence suite.

The executor contract (see ``repro.stats.executor``): for the same master
seed, a Monte-Carlo batch produces *byte-identical* outcome lists at any
job count, because every trial is a pure function of its derived seed and
results are reassembled in trial order.  This suite enforces the contract
on synthetic trials, on the real simulation trial functions behind the
paper's BER figures, and on every registered experiment end-to-end, plus
hypothesis property tests that the seed derivation has no collisions over
(master seed, sweep point, trial).

The flattened sweep queue is also held to a tests-side oracle,
:func:`per_point_reference`: the per-point loop it replaced, one
Monte-Carlo batch per x point with a barrier between points.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    EXPERIMENTS,
    fig06_inquiry_ber,
    fig07_page_ber,
    fig08_failure_probability,
    run_experiment,
)
from repro.stats.estimators import mean_with_ci, wilson_interval
from repro.stats.executor import (
    JOBS_ENV_VAR,
    SequentialExecutor,
    default_jobs,
    get_executor,
)
from repro.stats.montecarlo import (
    MASK64,
    MonteCarlo,
    TrialOutcome,
    derive_seed,
)
from repro.stats.fabric import FabricExecutor
from repro.stats.sweep import (
    SWEEP_POINT_STREAM,
    Sweep,
    SweepPoint,
    run_flattened,
)


def per_point_reference(master_seed: int, trials: int,
                        xs: list[tuple[float, str]],
                        trial_fn) -> list[SweepPoint]:
    """A sweep run point by point: one sequential Monte-Carlo batch per x
    value at master seed ``derive_seed(master_seed, point,
    stream=SWEEP_POINT_STREAM)``, aggregated as each point finishes."""
    points = []
    for point_index, (x, label) in enumerate(xs):
        mc = MonteCarlo(master_seed=derive_seed(
            master_seed, point_index, stream=SWEEP_POINT_STREAM),
            trials=trials)
        outcomes = mc.run(lambda seed: trial_fn(x, seed))
        values = [o.value for o in outcomes if o.success]
        points.append(SweepPoint(
            x=x, label=label, mean=mean_with_ci(values),
            success=wilson_interval(len(values), len(outcomes)),
            extra=outcomes))
    return points


def _synthetic_trial(seed: int) -> TrialOutcome:
    """Module-level (hence picklable) pure trial function."""
    return TrialOutcome(seed=seed, success=seed % 3 != 0,
                        value=float(seed % 97))


class TestExecutorContract:
    def test_sequential_is_a_plain_ordered_map(self):
        outcomes = SequentialExecutor().map(_synthetic_trial, [5, 6, 7])
        assert [o.seed for o in outcomes] == [5, 6, 7]

    def test_parallel_outcomes_byte_identical_to_sequential(self):
        mc_seq = MonteCarlo(master_seed=42, trials=10)
        mc_par = MonteCarlo(master_seed=42, trials=10)
        seq = mc_seq.run(_synthetic_trial, executor=SequentialExecutor())
        par = mc_par.run(_synthetic_trial, executor=get_executor(4))
        assert pickle.dumps(seq) == pickle.dumps(par)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 100])
    def test_any_chunking_covers_all_items_in_order(self, chunk_size):
        executor = FabricExecutor(workers=2, chunk_size=chunk_size)
        outcomes = executor.map(_synthetic_trial, list(range(11)))
        assert [o.seed for o in outcomes] == list(range(11))

    def test_progress_fires_in_trial_order_under_parallel(self):
        seen = []
        mc = MonteCarlo(master_seed=1, trials=8)
        mc.run(_synthetic_trial, progress=lambda i, o: seen.append(i),
               executor=get_executor(3))
        assert seen == list(range(8))

    def test_unpicklable_fn_degrades_to_sequential_with_warning(self):
        captured = []
        with pytest.warns(RuntimeWarning, match="not picklable"):
            outcomes = get_executor(2).map(
                lambda seed: captured.append(seed) or _synthetic_trial(seed),
                [1, 2, 3])
        assert captured == [1, 2, 3]  # ran in-process
        assert [o.seed for o in outcomes] == [1, 2, 3]

    def test_default_jobs_resolution(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert default_jobs() == 1
        assert default_jobs(3) == 3
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert default_jobs() == 5
        assert default_jobs(3) == 5  # env wins, mirroring REPRO_TRIALS
        monkeypatch.setenv(JOBS_ENV_VAR, "auto")
        assert default_jobs() >= 1

    def test_get_executor_selects_backend(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert isinstance(get_executor(), SequentialExecutor)
        assert isinstance(get_executor(1), SequentialExecutor)
        executor = get_executor(4)
        assert isinstance(executor, FabricExecutor)
        assert executor.jobs == executor.workers == 4

    def test_resilient_executor_honours_the_same_contract(self):
        """The fault-tolerant backend is an Executor too: byte-identical
        ordered outcomes with no faults injected (its recovery paths are
        exercised in tests/stats/test_resilient.py and test_fabric.py)."""
        mc_seq = MonteCarlo(master_seed=42, trials=10)
        mc_res = MonteCarlo(master_seed=42, trials=10)
        seq = mc_seq.run(_synthetic_trial, executor=SequentialExecutor())
        with FabricExecutor(workers=4) as executor:
            res = mc_res.run(_synthetic_trial, executor=executor)
        assert pickle.dumps(seq) == pickle.dumps(res)


#: The real simulation trial functions behind the paper's Monte-Carlo
#: figures, each exercised on a two-point BER grid at 3 trials/point.
SIM_TRIAL_FNS = {
    "fig06": fig06_inquiry_ber.run_trial,
    "fig07": fig07_page_ber.run_trial,
    "fig08_inquiry": fig08_failure_probability.inquiry_trial,
    "fig08_page": fig08_failure_probability.page_trial,
}
SMALL_GRID = [(0.0, "0"), (1 / 60, "1/60")]


@pytest.mark.parametrize("name", sorted(SIM_TRIAL_FNS))
def test_simulation_sweep_outcomes_identical_at_any_job_count(name):
    trial_fn = SIM_TRIAL_FNS[name]
    seq = Sweep(master_seed=11, trials_per_point=3).run(
        SMALL_GRID, trial_fn, executor=SequentialExecutor())
    par = Sweep(master_seed=11, trials_per_point=3).run(
        SMALL_GRID, trial_fn, executor=get_executor(4))
    for point_seq, point_par in zip(seq, par):
        # byte-identical TrialOutcome lists (seeds, flags, values, extras)
        assert pickle.dumps(point_seq.extra) == pickle.dumps(point_par.extra)
        # and identical aggregates
        assert point_seq.mean == point_par.mean
        assert point_seq.success == point_par.success


@pytest.mark.parametrize("name", sorted(SIM_TRIAL_FNS))
def test_flattened_dispatch_identical_to_per_point_at_any_job_count(name):
    """The byte-identity contract of the flattened work queue: for every
    figure-style sweep, the flat queue at jobs 1, 2 and 4 must equal the
    per-point reference loop."""
    trial_fn = SIM_TRIAL_FNS[name]
    reference_bytes = pickle.dumps(
        per_point_reference(7, 3, SMALL_GRID, trial_fn))
    for jobs in (1, 2, 4):
        with get_executor(jobs) as executor:
            flat = Sweep(master_seed=7, trials_per_point=3).run(
                SMALL_GRID, trial_fn, executor=executor)
        assert pickle.dumps(flat) == reference_bytes


def test_multi_sweep_flattened_queue_identical_to_separate_runs():
    """``run_flattened`` over several sweeps (the Fig. 8 inquiry + page
    pattern) must reproduce each sweep's separate per-point results."""
    specs = [
        (Sweep(master_seed=3, trials_per_point=2),
         SMALL_GRID, fig08_failure_probability.inquiry_trial),
        (Sweep(master_seed=4, trials_per_point=2),
         SMALL_GRID, fig08_failure_probability.page_trial),
    ]
    with get_executor(3) as executor:
        combined = run_flattened(specs, executor)
    separate = [
        per_point_reference(3, 2, SMALL_GRID,
                            fig08_failure_probability.inquiry_trial),
        per_point_reference(4, 2, SMALL_GRID,
                            fig08_failure_probability.page_trial),
    ]
    assert pickle.dumps(combined) == pickle.dumps(separate)


def _synthetic_trial_x(x: float, seed: int) -> TrialOutcome:
    """Module-level figure-style trial: value depends on both coordinates,
    so any cross-point reordering or seed mix-up changes the bytes."""
    return TrialOutcome(seed=seed, success=(seed ^ int(x * 1000)) % 4 != 0,
                        value=float((seed % 1009) + x))


class TestFlattenedInterleavingProperties:
    """Flattened chunk interleaving must never reorder SweepPoint
    aggregates, whatever the grid shape and chunking geometry."""

    @settings(max_examples=25, deadline=None)
    @given(
        n_points=st.integers(min_value=1, max_value=5),
        trials=st.integers(min_value=1, max_value=6),
        chunk_size=st.integers(min_value=1, max_value=50),
        jobs=st.integers(min_value=2, max_value=4),
        master=st.integers(min_value=0, max_value=1_000_000),
    )
    def test_flat_equals_per_point_under_any_chunking(
            self, n_points, trials, chunk_size, jobs, master):
        xs = [(float(i), f"p{i}") for i in range(n_points)]
        reference = per_point_reference(master, trials, xs,
                                        _synthetic_trial_x)
        with FabricExecutor(workers=jobs, chunk_size=chunk_size) as executor:
            flat = Sweep(master_seed=master, trials_per_point=trials).run(
                xs, _synthetic_trial_x, executor=executor)
        assert pickle.dumps(flat) == pickle.dumps(reference)
        # aggregate order is the x-grid order, never the completion order
        assert [p.label for p in flat] == [label for _, label in xs]
        assert [p.x for p in flat] == [x for x, _ in xs]


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_every_experiment_is_job_count_invariant(experiment_id,
                                                 tiny_experiments):
    sequential = run_experiment(experiment_id, jobs=1)
    parallel = run_experiment(experiment_id, jobs=2)
    # repr-compare: cells may legitimately be NaN (e.g. a conditional mean
    # with no successes), and NaN != NaN under list equality
    assert repr(sequential.rows) == repr(parallel.rows)
    assert sequential.to_table() == parallel.to_table()


U64 = st.integers(min_value=0, max_value=MASK64)
REALISTIC = st.integers(min_value=0, max_value=1_000_000)


class TestSeedDerivationProperties:
    @settings(max_examples=200)
    @given(st.sets(st.tuples(U64, U64), min_size=2, max_size=64))
    def test_injective_over_master_and_trial(self, keys):
        assert len({derive_seed(m, i) for m, i in keys}) == len(keys)

    @settings(max_examples=200)
    @given(st.sets(st.tuples(REALISTIC, REALISTIC, REALISTIC),
                   min_size=2, max_size=64))
    def test_injective_over_master_point_and_trial(self, triples):
        # exactly the two-level derivation a Sweep performs
        seeds = {derive_seed(derive_seed(m, p, stream=SWEEP_POINT_STREAM), t)
                 for m, p, t in triples}
        assert len(seeds) == len(triples)

    @settings(max_examples=100)
    @given(U64, U64, st.sets(U64, min_size=2, max_size=8))
    def test_streams_namespace_the_derivation(self, master, index, streams):
        seeds = {derive_seed(master, index, stream=s) for s in streams}
        assert len(seeds) == len(streams)

    @settings(max_examples=100)
    @given(U64, U64)
    def test_result_is_a_64_bit_seed(self, master, index):
        assert 0 <= derive_seed(master, index) <= MASK64

    def test_legacy_formulas_alias_where_new_derivation_does_not(self):
        # the pre-v1 strides: trial seed m * 10_000 + i, point seed
        # m + 7919 * p
        trial_stride, point_stride = 10_000, 7919
        # trial stride alias: (m, 10_000) == (m+1, 0)
        assert 3 * trial_stride + trial_stride == 4 * trial_stride + 0
        assert derive_seed(3, trial_stride) != derive_seed(4, 0)
        # sweep-point alias: master 7920/point 1 == master 1/point 2
        assert 7920 + point_stride * 1 == 1 + point_stride * 2
        assert derive_seed(7920, 1, stream=SWEEP_POINT_STREAM) \
            != derive_seed(1, 2, stream=SWEEP_POINT_STREAM)
