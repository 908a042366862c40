"""Experiment harness: tables, grids, prefix subsets."""

import pytest

from repro.core.advertisement import AdvertisementConfig
from repro.experiments.harness import ExperimentResult, budget_grid, config_prefix_subset


class TestExperimentResult:
    def test_add_and_column(self):
        result = ExperimentResult("t", "test", columns=["a", "b"])
        result.add_row(1, 2.0)
        result.add_row(3, 4.0)
        assert result.column("a") == [1, 3]
        assert result.column("b") == [2.0, 4.0]

    def test_wrong_arity_rejected(self):
        result = ExperimentResult("t", "test", columns=["a", "b"])
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_unknown_column(self):
        result = ExperimentResult("t", "test", columns=["a"])
        with pytest.raises(KeyError):
            result.column("zzz")

    def test_render_contains_everything(self):
        result = ExperimentResult("fig0", "demo", columns=["name", "value"])
        result.add_row("x", 1.5)
        result.add_note("a note")
        text = result.render()
        assert "fig0" in text and "demo" in text
        assert "name" in text and "1.500" in text
        assert "note: a note" in text

    def test_render_empty_table(self):
        result = ExperimentResult("fig0", "demo", columns=["only"])
        assert "only" in result.render()


class TestBudgetGrid:
    def test_includes_max(self):
        assert budget_grid(25)[-1] == 25

    def test_strictly_increasing(self):
        grid = budget_grid(500)
        assert grid == sorted(set(grid))

    def test_small_max(self):
        assert budget_grid(1) == [1]
        assert budget_grid(2) == [1, 2]

    def test_invalid(self):
        with pytest.raises(ValueError):
            budget_grid(0)


class TestConfigSubset:
    def test_truncation(self):
        config = AdvertisementConfig.from_pairs([(0, 1), (1, 2), (2, 3)])
        subset = config_prefix_subset(config, 2)
        assert subset.prefixes == [0, 1]
        assert subset.peerings_for(0) == frozenset({1})

    def test_full_subset_equals_original(self):
        config = AdvertisementConfig.from_pairs([(0, 1), (1, 2)])
        assert config_prefix_subset(config, 10) == config

    def test_zero_subset_empty(self):
        config = AdvertisementConfig.from_pairs([(0, 1)])
        assert config_prefix_subset(config, 0).prefix_count == 0


class TestExperimentsCliPlotting:
    def test_benefit_curve_experiments_get_plotted(self, monkeypatch, capsys):
        """`repro run` appends an ASCII plot for strategy/budget tables."""
        import repro.experiments
        from repro.cli import main
        from repro.experiments.harness import Experiment, ExperimentResult

        def fake_experiment():
            result = ExperimentResult(
                "figX", "demo", columns=["strategy", "budget_prefixes", "benefit_frac"]
            )
            result.add_row("painter", 1, 0.5)
            result.add_row("painter", 10, 0.9)
            result.add_row("baseline", 1, 0.2)
            result.add_row("baseline", 10, 0.4)
            return result

        monkeypatch.setattr(
            repro.experiments, "ALL_EXPERIMENTS", {"figX": Experiment(fake_experiment)}
        )
        assert main(["run", "figX"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out  # the plot rendered
        assert "painter" in out

    def test_non_curve_experiments_skip_plot(self, monkeypatch, capsys):
        import repro.experiments
        from repro.cli import main
        from repro.experiments.harness import Experiment, ExperimentResult

        def fake_experiment():
            result = ExperimentResult("figY", "demo", columns=["a", "b"])
            result.add_row(1, 2)
            return result

        monkeypatch.setattr(
            repro.experiments, "ALL_EXPERIMENTS", {"figY": Experiment(fake_experiment)}
        )
        assert main(["run", "figY"]) == 0
        assert "legend" not in capsys.readouterr().out


class TestParallelRunner:
    def test_unknown_experiment_rejected(self):
        from repro.experiments.harness import run_experiments_parallel

        with pytest.raises(KeyError):
            run_experiments_parallel(["no-such-experiment"], jobs=1)

    def test_parallel_matches_serial(self):
        """Workers must return exactly what an in-process run produces.

        Experiments build their worlds from explicit seeds, so fanning them
        across processes must not change a single row, nor the perf counts
        merged home: a forked worker starts from this process's counts and
        may run a second task after its first.
        """
        from repro.experiments.harness import run_experiments_parallel
        from repro.telemetry import METRICS

        names = ["fig3", "fig8", "ext_congestion", "ext_multipath"]
        solves = METRICS.counter("orchestrator.solve_calls")
        before = solves.value
        serial = run_experiments_parallel(names, jobs=1)
        serial_solves = solves.value - before
        before = solves.value
        parallel = run_experiments_parallel(names, jobs=2)
        assert solves.value - before == serial_solves > 0
        assert list(parallel) == names  # requested order preserved
        for name in names:
            assert parallel[name].columns == serial[name].columns
            assert parallel[name].rows == serial[name].rows

    def test_parallel_merges_worker_perf_counters(self):
        from repro.experiments.harness import run_experiments_parallel
        from repro.telemetry import METRICS

        METRICS.reset()
        # fig15a solves Algorithm 1 in its worker; fig3 is pure measurement.
        run_experiments_parallel(["fig3", "fig15a"], jobs=2)
        # The workers' counters must have been folded into this process's
        # registry even though no solve ran here.
        assert METRICS.counter("orchestrator.solve_calls").value > 0
