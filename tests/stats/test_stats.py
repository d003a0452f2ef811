"""Estimators, Monte Carlo harness, sweeps and tables."""

import math

import pytest

from repro.stats.estimators import ci_cell, mean_with_ci, wilson_interval
from repro.stats.montecarlo import (
    MonteCarlo,
    TrialOutcome,
    default_trials,
    derive_seed,
)
from repro.stats.sweep import SWEEP_POINT_STREAM, Sweep
from repro.stats.tables import format_table


class TestEstimators:
    def test_mean_simple(self):
        estimate = mean_with_ci([1.0, 2.0, 3.0])
        assert estimate.mean == pytest.approx(2.0)
        assert estimate.n == 3
        assert estimate.lo < 2.0 < estimate.hi

    def test_mean_empty(self):
        assert math.isnan(mean_with_ci([]).mean)

    def test_mean_single_value_flags_undefined_ci(self):
        estimate = mean_with_ci([5.0])
        assert math.isnan(estimate.ci_halfwidth)  # flagged, not ± inf
        assert not estimate.ci_defined
        assert "± ?" in str(estimate)
        assert mean_with_ci([1.0, 2.0]).ci_defined

    def test_flagged_estimates_compare_equal_but_do_not_hash(self):
        # the NaN flag is a sentinel: two flagged estimates of the same
        # sample are equal, and no hash pretends to agree with that
        assert mean_with_ci([5.0]) == mean_with_ci([5.0])
        assert mean_with_ci([]) == mean_with_ci([])
        assert mean_with_ci([5.0]) != mean_with_ci([6.0])
        with pytest.raises(TypeError):
            hash(mean_with_ci([5.0]))

    def test_ci_cell_renders_undefined_as_question_mark(self):
        assert ci_cell(mean_with_ci([5.0]).ci_halfwidth) == "±?"
        assert ci_cell(float("inf")) == "±?"  # legacy archives, defensively
        assert ci_cell(12.345) == 12.3
        assert ci_cell(12.345, digits=2) == 12.35

    def test_ci_shrinks_with_n(self):
        wide = mean_with_ci([0.0, 10.0] * 3)
        narrow = mean_with_ci([0.0, 10.0] * 50)
        assert narrow.ci_halfwidth < wide.ci_halfwidth

    def test_wilson_basic(self):
        estimate = wilson_interval(8, 10)
        assert estimate.p == pytest.approx(0.8)
        assert 0 < estimate.lo < 0.8 < estimate.hi < 1.0

    def test_wilson_extremes_stay_in_bounds(self):
        assert wilson_interval(0, 20).lo == 0.0
        assert wilson_interval(20, 20).hi == 1.0
        assert wilson_interval(0, 20).hi > 0.0  # not degenerate

    def test_wilson_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)


class TestMonteCarlo:
    def trial(self, seed):
        return TrialOutcome(seed=seed, success=seed % 2 == 0, value=float(seed % 10))

    def test_runs_all_trials_with_derived_seeds(self):
        mc = MonteCarlo(master_seed=3, trials=10)
        outcomes = mc.run(self.trial)
        assert len(outcomes) == 10
        assert outcomes[0].seed == derive_seed(3, 0)
        assert outcomes[9].seed == derive_seed(3, 9)
        assert len({o.seed for o in outcomes}) == 10

    def test_legacy_formula_collides_new_one_does_not(self):
        # the structural alias of the pre-v1 formula (stride 10 000) that
        # the derivation removes:
        legacy = lambda m, i: m * 10_000 + i
        assert legacy(3, 10_000) == legacy(4, 0)
        assert derive_seed(3, 10_000) != derive_seed(4, 0)

    def test_aggregation(self):
        mc = MonteCarlo(master_seed=0, trials=10)
        mc.run(self.trial)
        expected = sum(1 for i in range(10) if mc.seed_for(i) % 2 == 0)
        assert mc.successes == expected
        assert mc.failure_rate == pytest.approx(1 - expected / 10)
        assert len(mc.successful_values()) == expected

    def test_progress_callback(self):
        seen = []
        mc = MonteCarlo(master_seed=0, trials=3)
        mc.run(self.trial, progress=lambda i, o: seen.append(i))
        assert seen == [0, 1, 2]

    def test_default_trials_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "5")
        assert default_trials(100) == 5
        monkeypatch.delenv("REPRO_TRIALS")
        assert default_trials(100) == 100


class TestSweep:
    def test_per_point_batches(self):
        def trial(x, seed):
            return TrialOutcome(seed=seed, success=x < 2, value=x * 10)

        sweep = Sweep(master_seed=1, trials_per_point=4)
        points = sweep.run([(1, "one"), (3, "three")], trial)
        assert points[0].success.p == 1.0
        assert points[0].mean.mean == pytest.approx(10)
        assert points[1].success.p == 0.0
        assert points[1].failure_rate == 1.0

    def test_labels_kept(self):
        sweep = Sweep(master_seed=1, trials_per_point=1)
        points = sweep.run([(0.5, "1/2")],
                           lambda x, s: TrialOutcome(s, True, x))
        assert points[0].label == "1/2"

    def test_point_master_seeds(self):
        sweep = Sweep(master_seed=5, trials_per_point=1)
        assert sweep.point_master_seed(2) == derive_seed(
            5, 2, stream=SWEEP_POINT_STREAM)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trial_counts_below_one_rejected(self, trials):
        # regression: a non-positive count used to run an empty grid and
        # report every point as NaN over 0/0 trials
        with pytest.raises(ValueError, match="at least 1"):
            Sweep(master_seed=1, trials_per_point=trials)

    def test_zero_successful_trials_is_flagged_nan_not_error(self):
        # regression: a point where every trial failed is a legitimate
        # campaign result — the conditional mean degrades to the same
        # flagged-NaN estimate as the n=0 case (NaN mean, NaN half-width,
        # rendered "±?"), while the success column stays a proper Wilson
        # interval at 0/n
        def trial(x, seed):
            return TrialOutcome(seed=seed, success=False, value=0.0)

        sweep = Sweep(master_seed=3, trials_per_point=4)
        (point,) = sweep.run([(1.0, "one")], trial)
        assert math.isnan(point.mean.mean)
        assert math.isnan(point.mean.ci_halfwidth)
        assert point.mean.n == 0
        assert ci_cell(point.mean.ci_halfwidth) == "±?"
        assert point.success.successes == 0
        assert point.success.n == 4
        assert point.success.p == 0.0
        assert 0.0 < point.success.hi < 1.0  # Wilson 0/4, not NaN
        # and the flagged estimate compares equal to itself (NaN-aware),
        # so byte-level sweep comparisons still work on all-failed points
        (again,) = Sweep(master_seed=3, trials_per_point=4).run(
            [(1.0, "one")], trial)
        assert again.mean == point.mean


class TestTables:
    def test_alignment(self):
        text = format_table(["name", "v"], [["long-name", 1], ["x", 22.5]])
        lines = text.splitlines()
        assert len({line.index("  ") for line in lines[1:]}) >= 1
        assert "long-name" in text

    def test_title(self):
        text = format_table(["a"], [[1]], title="My table")
        assert text.splitlines()[0] == "My table"
        assert text.splitlines()[1] == "========"

    def test_float_formatting(self):
        text = format_table(["x"], [[1234567.0]])
        assert "1234567" in text
