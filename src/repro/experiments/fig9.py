"""Fig. 9: steering granularity (9a) and its benefit cost (9b).

9a buckets each PoP's ingress traffic by the size of the unit each
mechanism steers (BGP: (peering, user AS); DNS: recursive resolver;
PAINTER: flow).  9b re-evaluates PAINTER's advertisement configurations
assuming clients are assigned to prefixes via DNS — the paper finds roughly
half the benefit evaporates because some resolvers serve geographically
disparate UGs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.dns.resolvers import ResolverAssignment, ResolverConfig
from repro.experiments.harness import ExperimentResult, budget_grid, config_prefix_subset
from repro.scenario import Scenario, prototype_scenario
from repro.steering.dns_steering import evaluate_dns_steering
from repro.steering.granularity import BUCKET_LABELS, GranularityAnalysis


def run_fig9a(
    scenario: Optional[Scenario] = None,
    top_pops: int = 10,
    resolver_config: Optional[ResolverConfig] = None,
) -> ExperimentResult:
    scenario = scenario or prototype_scenario(seed=0, n_ugs=400)
    resolvers = ResolverAssignment(scenario, resolver_config)
    analysis = GranularityAnalysis(scenario, resolvers)

    result = ExperimentResult(
        experiment_id="fig9a",
        title="Steering granularity: volume share per control-unit-size bucket",
        columns=["pop", "mechanism"] + list(BUCKET_LABELS),
    )
    for mechanism, granularity in analysis.analyze_all().items():
        result.add_row("all", mechanism, *granularity.bucket_shares)
    for pop_name in analysis.top_pops(top_pops):
        for mechanism, granularity in analysis.analyze_pop(pop_name).items():
            result.add_row(pop_name, mechanism, *granularity.bucket_shares)
    result.add_note("buckets are the fraction of PoP traffic one control action moves")
    return result


def run_fig9b(
    scenario: Optional[Scenario] = None,
    painter_max_budget: int = 25,
    resolver_config: Optional[ResolverConfig] = None,
    learning_iterations: int = 2,
) -> ExperimentResult:
    scenario = scenario or prototype_scenario(seed=0, n_ugs=400)
    resolvers = ResolverAssignment(scenario, resolver_config)
    orchestrator = PainterOrchestrator(
        scenario, OrchestratorConfig(prefix_budget=painter_max_budget)
    )
    if learning_iterations > 1:
        orchestrator.learn(iterations=learning_iterations - 1)
    full_config = orchestrator.solve()
    total_possible = scenario.total_possible_benefit()

    result = ExperimentResult(
        experiment_id="fig9b",
        title="PAINTER vs PAINTER-with-DNS benefit over budget",
        columns=[
            "budget_prefixes",
            "painter_benefit_frac",
            "dns_benefit_frac",
            "dns_fraction_of_painter",
        ],
    )
    for budget in budget_grid(painter_max_budget):
        config = config_prefix_subset(full_config, budget)
        outcome = evaluate_dns_steering(scenario, config, resolvers)
        result.add_row(
            budget,
            outcome.painter_benefit / total_possible,
            outcome.dns_benefit / total_possible,
            outcome.dns_fraction_of_painter,
        )
    return result


# -- claims (checked by ``repro report`` at the registry's ``claims_at``) ----


def finest_granularity(result: ExperimentResult) -> None:
    all_rows = {row[1]: row[2:] for row in result.rows if row[0] == "all"}
    # PAINTER controls everything at the finest granularity; BGP is coarsest.
    assert all_rows["painter"][0] + all_rows["painter"][1] > 0.95
    bgp_coarse = all_rows["bgp"][-1] + all_rows["bgp"][-2]
    painter_coarse = all_rows["painter"][-1] + all_rows["painter"][-2]
    assert bgp_coarse > painter_coarse


def dns_steering_sacrifices_benefit(result: ExperimentResult) -> None:
    fractions = result.column("dns_fraction_of_painter")
    # DNS steering sacrifices a large share of the benefit (paper: ~half).
    assert min(fractions) < 0.9
    assert all(f <= 1.0 + 1e-9 for f in fractions)
