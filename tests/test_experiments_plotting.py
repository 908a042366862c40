"""ASCII plotting for experiment curves."""

import math

import pytest

from repro.experiments.harness import ExperimentResult
from repro.experiments.plotting import ascii_plot, plot_benefit_curves


class TestAsciiPlot:
    def test_contains_marks_and_legend(self):
        plot = ascii_plot({"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]})
        assert "*" in plot and "o" in plot
        assert "legend: *=a  o=b" in plot

    def test_title_and_labels(self):
        plot = ascii_plot(
            {"s": [(1, 2), (3, 4)]}, title="T", x_label="xx", y_label="yy"
        )
        assert plot.startswith("T")
        assert "xx" in plot and "yy" in plot

    def test_log_x_skips_nonpositive(self):
        plot = ascii_plot({"s": [(0.0, 1.0), (10.0, 2.0), (100.0, 3.0)]}, log_x=True)
        assert "legend" in plot

    def test_nonfinite_points_skipped(self):
        plot = ascii_plot({"s": [(1.0, math.inf), (2.0, 5.0), (3.0, 6.0)]})
        assert "legend" in plot

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({"s": []})

    def test_tiny_canvas_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({"s": [(0, 0)]}, width=2, height=2)

    def test_flat_series_plots(self):
        plot = ascii_plot({"s": [(0, 5.0), (1, 5.0), (2, 5.0)]})
        assert "legend" in plot

    def test_axis_range_labels(self):
        plot = ascii_plot({"s": [(2.0, 10.0), (8.0, 20.0)]})
        assert "20" in plot and "10" in plot
        assert "2" in plot and "8" in plot


class TestPlotBenefitCurves:
    def test_from_experiment_result(self):
        result = ExperimentResult(
            "figX", "demo", columns=["strategy", "budget_prefixes", "benefit_frac"]
        )
        result.add_row("painter", 1, 0.5)
        result.add_row("painter", 10, 0.9)
        result.add_row("baseline", 1, 0.3)
        result.add_row("baseline", 10, 0.5)
        plot = plot_benefit_curves(result)
        assert "painter" in plot and "baseline" in plot

    def test_missing_column_raises(self):
        result = ExperimentResult("figX", "demo", columns=["strategy", "budget_prefixes"])
        result.add_row("painter", 1)
        with pytest.raises(ValueError):
            plot_benefit_curves(result, value_column="nope")


class TestMeasurementModes:
    def test_fig6a_modes_run(self, scenario):
        from repro.experiments.fig6 import run_fig6a

        for mode in ("oracle", "simulated", "geolocated"):
            result = run_fig6a(
                scenario=scenario,
                painter_max_budget=3,
                learning_iterations=1,
                measurement_mode=mode,
            )
            painter = [r for r in result.rows if r[0] == "painter"]
            assert painter, mode
            assert any(f"measurement mode: {mode}" in n for n in result.notes)

    def test_unknown_mode_rejected(self, scenario):
        from repro.experiments.fig6 import run_fig6a, run_fig6b
        from repro.experiments.fig7 import run_fig7

        with pytest.raises(ValueError):
            run_fig6a(scenario=scenario, painter_max_budget=2, measurement_mode="psychic")
        # A misspelt comparator fails closed instead of dropping its rows.
        for runner in (run_fig6a, run_fig6b, run_fig7):
            with pytest.raises(ValueError, match=r"allowed: \['communities'\]"):
                runner(scenario=scenario, strategies=["communitees"])
