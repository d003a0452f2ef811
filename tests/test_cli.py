"""The python -m repro command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "ext_interference" in out

    def test_run_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "2")
        assert main(["run", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 10" in out
        assert "duty cycle" in out

    def test_run_with_trials_and_seed(self, capsys):
        assert main(["run", "ablation_correlator",
                     "--trials", "2", "--seed", "9"]) == 0
        assert "threshold" in capsys.readouterr().out

    def test_run_with_jobs_matches_sequential(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["run", "ablation_correlator",
                     "--trials", "2", "--seed", "9", "--jobs", "1"]) == 0
        sequential = capsys.readouterr().out
        assert main(["run", "ablation_correlator",
                     "--trials", "2", "--seed", "9", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # identical tables; only the timing line may differ
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("[")]
        assert strip(sequential) == strip(parallel)

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trial_counts_below_one_rejected(self, capsys, trials):
        # regression: --trials -3 used to print a table of nan / 0/0 rows
        # and exit 0
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig07", "--trials", trials])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "at least 1" in captured.err
        assert captured.out == ""

    def test_non_integer_trials_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig07", "--trials", "many"])
        assert excinfo.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err
