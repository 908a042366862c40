"""Markdown report generation and the claims ``repro report`` checks."""

import inspect

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

    def test_verdicts_follow_their_table(self):
        report = build_report(
            [_result("a"), _result("b")], timestamp="t", verdicts={"a": ["PASS a.holds"]}
        )
        assert report.index("- PASS a.holds") < report.index("## b — demo table")


class TestRunAndReport:
    def test_runs_selected_experiments(self, scenario):
        report, _verdicts = run_and_report(["fig10", "fig12"], scenario=scenario)
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
        report, verdicts = run_and_report(["fig10"], scenario=scenario)
        assert "PAINTER downtime" in report
        # Override arguments replace claims_at, so no claim is checked.
        assert verdicts == []


class TestClaims:
    def test_claims_at_names_runner_parameters_and_claim_worlds(self):
        from repro.experiments import ALL_EXPERIMENTS
        from repro.scenario import CLAIM_WORLDS

        for name, experiment in ALL_EXPERIMENTS.items():
            assert experiment.claims or not experiment.claims_at, name
            parameters = inspect.signature(experiment.run).parameters
            assert set(experiment.claims_at) <= set(parameters), name
            if "scenario" in experiment.claims_at:
                assert experiment.claims_at["scenario"] in CLAIM_WORLDS, name

    def test_cli_passes_and_exits_0_when_every_claim_holds(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "report.md"
        assert main(["report", "fig3", "--output", str(output)]) == 0
        assert "PASS fig3.late_bytes_outlive_dns\n" in capsys.readouterr().out
        assert "- PASS fig3.late_bytes_outlive_dns\n" in output.read_text()

    def test_cli_fails_and_exits_1_on_a_failing_claim(self, monkeypatch, tmp_path, capsys):
        import repro.experiments
        from repro.cli import main
        from repro.experiments.fig3 import late_bytes_outlive_dns, run_fig3
        from repro.experiments.harness import Experiment

        def never_holds(result):
            first = result.column("bytes_yet_to_be_sent_frac")[0]
            assert first > 2.0

        monkeypatch.setattr(
            repro.experiments,
            "ALL_EXPERIMENTS",
            {
                "fig3": Experiment(
                    run_fig3,
                    claims=(late_bytes_outlive_dns, never_holds),
                    claims_at={"n_flows": 1200},
                )
            },
        )
        output = tmp_path / "report.md"
        assert main(["report", "fig3", "--output", str(output)]) == 1
        out = capsys.readouterr().out
        assert "PASS fig3.late_bytes_outlive_dns\n" in out
        verdict = "FAIL fig3.never_holds: assert first > 2.0  [1.000 > 2.000]"
        assert verdict in out
        assert f"- {verdict}" in output.read_text()
