"""Every registered experiment, end to end through ``repro run``.

One case per id in :data:`repro.experiments.ALL_EXPERIMENTS`, at the small
parameters in :data:`SMOKE`: the command must exit 0, print the table it
saved with ``--json`` (which must load back unchanged), and leave a run
journal ``repro trace`` can render.  Experiments with a correctness story
beyond "runs" assert it in :data:`CHECKS`; the optimality runner raises on
its own if the LP bound is unsound or the ILP disagrees with brute force.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments import ALL_EXPERIMENTS
from repro.io import experiment_result_to_dict, load_experiment_result

TINY = ("--preset", "tiny", "--seed", "3")

#: Command-line arguments of each experiment's smoke run.
SMOKE = {
    "fig3": ("--n-flows", "300"),
    "fig6a": (*TINY, "--painter-max-budget", "4", "--learning-iterations", "1"),
    "fig6b": (*TINY, "--painter-max-budget", "4", "--learning-iterations", "1"),
    "fig6c": (*TINY, "--painter-max-budget", "4", "--iterations", "1"),
    "fig7": (
        *TINY, "--budgets", "2", "4", "--days", "0", "7",
        "--learning-iterations", "1",
    ),
    "fig8": TINY,
    "fig9a": (*TINY, "--top-pops", "3"),
    "fig9b": (*TINY, "--painter-max-budget", "4", "--learning-iterations", "1"),
    "fig10": (),
    "fig11a": TINY,
    "fig11b": TINY,
    "fig12": (*TINY, "--uncertainties-km", "100", "500"),
    "fig14": (*TINY, "--painter-max-budget", "4"),
    "fig15a": ("--scales", "0.4", "--max-budget", "4"),
    "fig15b": (*TINY, "--d-reuse-sweep-km", "1000", "3000", "--max-budget", "4"),
    "ablations": TINY,
    "enterprise": TINY,
    "chaos": ("--storms", "2", "--duration-s", "90"),
    "communities": (*TINY, "--budgets", "6"),
    "controller": ("--iterations", "3", "--budget", "2"),
    "hotpotato": (*TINY, "--budget", "6", "--n-epochs", "1"),
    "optimality": (*TINY, "--budgets", "3", "4"),
    "soak": (*TINY, "--windows", "2", "--arrivals-per-window", "500"),
    "ext_congestion": (*TINY, "--demand-levels", "50", "200"),
    "ext_egress": TINY,
    "ext_multipath": TINY,
    "ext_ipv6": TINY,
    "ext_failover_sweep": ("--rtt-scale-ms", "10", "40"),
}


def _check_fig10(result, out):
    assert "PAINTER downtime" in out


def _check_hotpotato(result, out):
    """A frozen (one-epoch) schedule: no flips, and PAINTER's gain is the
    additive coexistence evaluation's, bit for bit."""
    from repro.egress.coexistence import evaluate_coexistence
    from repro.experiments.fig6 import painter_budget_configs
    from repro.scenario import tiny_scenario

    assert sum(row[2] for row in result.rows) == 0
    scenario = tiny_scenario(seed=3)
    config = painter_budget_configs(scenario, [6])[6]
    (painter,) = [row for row in result.rows if row[0] == "painter"]
    assert painter[3] == evaluate_coexistence(scenario, config).combined_gain


def _check_controller(result, out):
    """Resume and cold control agree, and ``--budget`` reaches the solver:
    iteration 0 is a cold solve at budget 2."""
    from repro.core.benefit import realized_benefit
    from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
    from repro.scenario import tiny_scenario

    for note in result.notes:
        assert "DIVERGED" not in note and "DIFFERENT" not in note, note
    scenario = tiny_scenario(seed=3)
    config = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=2)).solve()
    assert result.rows[0][4] == realized_benefit(scenario, config)


def _check_soak(result, out):
    assert result.rows
    assert all(errors == 0 for errors in result.column("accounting_errors"))


CHECKS = {
    "fig10": _check_fig10,
    "hotpotato": _check_hotpotato,
    "controller": _check_controller,
    "soak": _check_soak,
}


def test_every_experiment_has_a_smoke_run():
    assert set(SMOKE) == set(ALL_EXPERIMENTS)


@pytest.mark.parametrize("name", list(SMOKE))
def test_experiment_smoke(name, tmp_path, capsys):
    table = tmp_path / f"{name}.json"
    journal = tmp_path / f"{name}.jsonl"
    argv = ["run", name, *SMOKE[name], "--json", str(table), "--journal", str(journal)]
    assert main(argv) == 0
    out = capsys.readouterr().out

    result = load_experiment_result(table)
    assert result.experiment_id == name
    assert result.render() in out
    assert experiment_result_to_dict(result) == json.loads(table.read_text())
    assert main(["trace", str(journal)]) == 0
    check = CHECKS.get(name)
    if check is not None:
        check(result, out)


@pytest.mark.slow
def test_fig7_with_communities_at_default_size(capsys):
    assert main(["run", "fig7", "--strategies", "communities"]) == 0
    out = capsys.readouterr().out
    assert "communities-dynamic" in out
