"""Fig. 7: do advertisement configurations go stale?

Solve once, then replay a month of latency dynamics (drift plus day-scale
peering degradations) against the *fixed* configuration.  Two client
behaviours are compared:

* **dynamic prefix choices** — the Traffic Manager re-measures and re-picks
  the best prefix each day (solid lines; paper: ~95% benefit retained);
* **static prefix choices** — each UG keeps the prefix it chose on day 0
  (dashed lines; paper: ~10% worse), isolating how much of the resilience
  comes from the configuration offering good *backup* paths.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.benefit import best_prefix_choices, realized_benefit
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.experiments.harness import ExperimentResult, check_strategies, config_prefix_subset
from repro.scenario import Scenario, prototype_scenario

DEFAULT_BUDGETS: Sequence[int] = (2, 8, 25)
DEFAULT_DAYS: Sequence[int] = (0, 3, 7, 14, 21, 28)


def run_fig7(
    scenario: Optional[Scenario] = None,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    days: Sequence[int] = DEFAULT_DAYS,
    learning_iterations: int = 2,
    strategies: Sequence[str] = (),
) -> ExperimentResult:
    check_strategies(strategies)
    scenario = scenario or prototype_scenario(seed=0, n_ugs=300)
    orchestrator = PainterOrchestrator(
        scenario, OrchestratorConfig(prefix_budget=max(budgets))
    )
    if learning_iterations > 1:
        orchestrator.learn(iterations=learning_iterations - 1)
    full_config = orchestrator.solve()

    result = ExperimentResult(
        experiment_id="fig7",
        title="Benefit retention over a month for a fixed configuration",
        columns=["budget_prefixes", "day", "mode", "benefit_frac"],
    )
    # The paper recalculates "the fraction of benefit we achieve" against the
    # *updated* latencies, so the denominator moves too; it depends on the
    # day alone, so every budget and strategy shares one per day.
    possible = {day: scenario.total_possible_benefit(day=day) for day in days}

    for budget in budgets:
        config = config_prefix_subset(full_config, budget)
        static_choices = best_prefix_choices(scenario, config, day=0)
        for day in days:
            dynamic = realized_benefit(scenario, config, day=day)
            static = realized_benefit(
                scenario, config, day=day, prefix_choice=static_choices
            )
            result.add_row(budget, day, "dynamic", dynamic / possible[day])
            result.add_row(budget, day, "static", static / possible[day])

    if "communities" in strategies:
        from repro.steering.communities import (
            communities_benefit,
            communities_budget_configs,
            communities_choices,
        )

        by_budget = communities_budget_configs(scenario, budgets)
        for budget in budgets:
            announcements = by_budget[budget]
            static_choice = communities_choices(scenario, announcements, day=0)
            for day in days:
                dynamic = communities_benefit(scenario, announcements, day=day)
                static = communities_benefit(
                    scenario, announcements, day=day, choices=static_choice
                )
                result.add_row(budget, day, "communities-dynamic", dynamic / possible[day])
                result.add_row(budget, day, "communities-static", static / possible[day])

    result.add_note(
        "benefit_frac is relative to the same-day total possible benefit; "
        "dynamic = TM re-picks prefixes daily, static = day-0 prefix pinned"
    )
    if "communities" in strategies:
        result.add_note(
            "communities-* rows: action-community steering with the same "
            "budget of announcement groups (dynamic = per-day best group, "
            "static = day-0 group pinned)"
        )
    return result


# -- claims (checked by ``repro report`` at the registry's ``claims_at``) ----


def dynamic_retains_static_degrades(result: ExperimentResult) -> None:
    table = {(row[0], row[1], row[2]): row[3] for row in result.rows}
    budgets = sorted({row[0] for row in result.rows})
    top = budgets[-1]
    day0 = table[(top, 0, "dynamic")]
    late_dynamic = [table[(top, d, "dynamic")] for d in (7, 14, 21, 28)]
    late_static = [table[(top, d, "static")] for d in (7, 14, 21, 28)]
    # Dynamic retains benefit (paper: <= ~3% degradation over a month).
    assert min(late_dynamic) >= day0 - 0.10
    # Static prefix choices do measurably worse (paper: ~10% worse).
    avg_dynamic = sum(late_dynamic) / len(late_dynamic)
    avg_static = sum(late_static) / len(late_static)
    assert avg_static <= avg_dynamic
