"""Markdown report generation."""

import pytest

from repro.experiments.harness import ExperimentResult
from repro.reporting import build_report, result_to_markdown, run_and_report


def _result(identifier="figX", rows=2):
    result = ExperimentResult(identifier, "demo table", columns=["name", "value"])
    for index in range(rows):
        result.add_row(f"row{index}", float(index))
    result.add_note("a note")
    return result


class TestResultToMarkdown:
    def test_structure(self):
        text = result_to_markdown(_result())
        assert text.startswith("## figX — demo table")
        assert "| name | value |" in text
        assert "| row0 | 0.000 |" in text
        assert "> a note" in text

    def test_row_elision(self):
        text = result_to_markdown(_result(rows=10), max_rows=3)
        assert "…7 more rows elided." in text
        assert "row9" not in text

    def test_pipe_escaping(self):
        result = ExperimentResult("f", "t", columns=["c"])
        result.add_row("a|b")
        assert "a\\|b" in result_to_markdown(result)


class TestBuildReport:
    def test_contents_and_sections(self):
        report = build_report([_result("a"), _result("b")], timestamp="now")
        assert report.startswith("# PAINTER reproduction report")
        assert "Generated now." in report
        assert "- [a](#user-content-a)" in report
        assert "## b — demo table" in report

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_report([])

    def test_preamble_included(self):
        report = build_report([_result()], preamble="Context here.", timestamp="t")
        assert "Context here." in report


class TestRunAndReport:
    def test_runs_selected_experiments(self, scenario):
        report = run_and_report(["fig10", "fig12"], scenario=scenario)
        assert "fig10" in report and "fig12" in report

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_and_report(["nope"])

    def test_cli_rejects_unknown_experiment(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "report.md"
        assert main(["report", "nope", "--output", str(output)]) == 2
        assert "unknown experiments: ['nope']; available: [" in capsys.readouterr().err
        assert not output.exists()

    def test_scenario_kwarg_only_passed_where_accepted(self, scenario):
        # fig10 does not take a scenario; this must not crash.
        report = run_and_report(["fig10"], scenario=scenario)
        assert "PAINTER downtime" in report
