"""Fig. 14 (Appendix E.1): full benefit ranges per strategy over budget.

One-per-PoP strategies advertise via every peering at a PoP, exposing many
possibly-poor ingresses per prefix: their Upper bound rises fast but Mean
and Estimated stay low and the range is wide.  PAINTER reuses prefixes only
across far-apart PoPs/disjoint cones, so its range is narrow; One-per-
Peering has no uncertainty at all (one ingress per prefix).
"""

from __future__ import annotations

from typing import Optional

from repro.core.benefit import BenefitEvaluator
from repro.core.routing_model import RoutingModel
from repro.experiments.fig6 import baseline_configs, painter_budget_configs
from repro.experiments.harness import ExperimentResult, budget_grid
from repro.scenario import Scenario, prototype_scenario


def run_fig14(
    scenario: Optional[Scenario] = None,
    painter_max_budget: int = 25,
) -> ExperimentResult:
    scenario = scenario or prototype_scenario(seed=0, n_ugs=300)
    evaluator = BenefitEvaluator(scenario, RoutingModel(scenario.catalog))
    total_possible = scenario.total_possible_benefit()

    result = ExperimentResult(
        experiment_id="fig14",
        title="Benefit ranges (lower/mean/estimated/upper) per strategy",
        columns=[
            "strategy",
            "budget_prefixes",
            "lower_frac",
            "mean_frac",
            "estimated_frac",
            "upper_frac",
        ],
    )

    budgets = budget_grid(painter_max_budget)
    painter_configs = painter_budget_configs(scenario, budgets, learning_iterations=1)
    for budget in budgets:
        ev = evaluator.evaluate(painter_configs[budget]).as_fraction_of(total_possible)
        result.add_row("painter", budget, ev.lower, ev.mean, ev.estimated, ev.upper)

    for name, config in baseline_configs(scenario):
        ev = evaluator.evaluate(config).as_fraction_of(total_possible)
        result.add_row(name, config.prefix_count, ev.lower, ev.mean, ev.estimated, ev.upper)
    return result


# -- claims (checked by ``repro report`` at the registry's ``claims_at``) ----


def painter_ranges_stay_narrow(result: ExperimentResult) -> None:
    by_strategy = {}
    for strategy, budget, lower, mean, estimated, upper in result.rows:
        by_strategy.setdefault(strategy, []).append((budget, lower, mean, estimated, upper))

    # One-per-Peering has zero uncertainty (one ingress per prefix).
    for _b, lower, _m, _e, upper in by_strategy["one_per_peering"]:
        assert abs(upper - lower) < 1e-9

    # One-per-PoP has wide ranges (many possibly-poor ingresses per prefix);
    # PAINTER's upper-estimated gap is small.
    def avg_gap(strategy, lo_idx, hi_idx):
        rows = by_strategy[strategy]
        return sum(r[hi_idx] - r[lo_idx] for r in rows) / len(rows)

    painter_gap = avg_gap("painter", 3, 4)  # upper - estimated
    opop_gap = avg_gap("one_per_pop", 3, 4)
    assert painter_gap < opop_gap
