"""Fig. 15 (Appendix E.2): scaling and the D_reuse tradeoff.

* **15a** — prefixes required to reach 90/95/99% of achievable benefit as
  the deployment grows (paper: scales linearly with deployment size);
* **15b** — sweeping the minimum reuse distance: larger D_reuse means the
  solver reuses prefixes only across far-apart ingresses, costing more
  prefixes but shrinking the benefit uncertainty.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.experiments.harness import ExperimentResult
from repro.scenario import Scenario, build_scenario
from repro.topology.builder import TopologyConfig
from repro.usergroups.generation import UserGroupConfig

DEFAULT_SCALES: Sequence[float] = (0.4, 0.7, 1.0)
DEFAULT_D_REUSE_SWEEP_KM: Sequence[float] = (500, 1000, 1500, 2000, 2500, 3000)
BENEFIT_TARGETS: Sequence[float] = (0.90, 0.95, 0.99)


def _scaled_scenario(scale: float, seed: int = 0, n_ugs: int = 250) -> Scenario:
    return build_scenario(
        name=f"scale-{scale:.2f}",
        topology_config=TopologyConfig(
            seed=seed,
            n_pops=max(4, round(25 * scale)),
            n_tier1=max(2, round(5 * scale)),
            n_transit=max(2, round(12 * scale)),
            n_regional=max(4, round(60 * scale)),
            n_stub=max(20, round(300 * scale)),
        ),
        ug_config=UserGroupConfig(seed=seed + 1, n_ugs=n_ugs),
    )


def _prefixes_for_targets(
    scenario: Scenario,
    targets: Sequence[float],
    max_budget: int,
    d_reuse_km: float = 3000.0,
) -> List[Optional[int]]:
    """Smallest budget whose estimated benefit reaches each target fraction.

    Fractions are relative to the solver's own full-budget achievement, so
    the metric isolates *how fast* the budget buys benefit.
    """
    orchestrator = PainterOrchestrator(
        scenario,
        OrchestratorConfig(prefix_budget=max_budget, d_reuse_km=d_reuse_km),
    )
    orchestrator.solve(record_curve=True)
    curve = orchestrator.budget_curve
    if not curve:
        return [None] * len(targets)
    final = curve[-1].estimated_benefit
    results: List[Optional[int]] = []
    for target in targets:
        needed: Optional[int] = None
        for point in curve:
            if final > 0 and point.estimated_benefit >= target * final:
                needed = point.prefixes_used
                break
        results.append(needed)
    return results


def run_fig15a(
    scales: Sequence[float] = DEFAULT_SCALES,
    max_budget: int = 30,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig15a",
        title="Prefixes required vs deployment size",
        columns=["scale", "n_peerings", "prefixes_90pct", "prefixes_95pct", "prefixes_99pct"],
    )
    for scale in scales:
        scenario = _scaled_scenario(scale, seed=seed)
        needed = _prefixes_for_targets(scenario, BENEFIT_TARGETS, max_budget)
        result.add_row(
            scale,
            len(scenario.deployment),
            *(n if n is not None else -1 for n in needed),
        )
    result.add_note("-1 marks targets not reached within the budget cap")
    return result


def run_fig15b(
    scenario: Optional[Scenario] = None,
    d_reuse_sweep_km: Sequence[float] = DEFAULT_D_REUSE_SWEEP_KM,
    max_budget: int = 30,
) -> ExperimentResult:
    from repro.scenario import prototype_scenario

    scenario = scenario or prototype_scenario(seed=0, n_ugs=250)
    result = ExperimentResult(
        experiment_id="fig15b",
        title="D_reuse tradeoff: required prefixes vs benefit uncertainty",
        columns=["d_reuse_km", "prefixes_99pct", "uncertainty_frac", "reuse_factor"],
    )
    total_possible = scenario.total_possible_benefit()
    for d_reuse in d_reuse_sweep_km:
        orchestrator = PainterOrchestrator(
            scenario,
            OrchestratorConfig(prefix_budget=max_budget, d_reuse_km=d_reuse),
        )
        config = orchestrator.solve(record_curve=True)
        curve = orchestrator.budget_curve
        final = curve[-1] if curve else None
        needed = -1
        if final is not None and final.estimated_benefit > 0:
            for point in curve:
                if point.estimated_benefit >= 0.99 * final.estimated_benefit:
                    needed = point.prefixes_used
                    break
        uncertainty = 0.0
        if final is not None and total_possible > 0:
            uncertainty = (final.upper_benefit - final.estimated_benefit) / total_possible
        result.add_row(d_reuse, needed, uncertainty, config.reuse_factor())
    return result


# -- claims (checked by ``repro report`` at the registry's ``claims_at``) ----


def prefixes_grow_with_deployment(result: ExperimentResult) -> None:
    peerings = result.column("n_peerings")
    p90 = result.column("prefixes_90pct")
    # Bigger deployments need at least as many prefixes (paper: linear-ish).
    assert peerings == sorted(peerings)
    assert all(n != -1 for n in p90)
    assert p90[-1] >= p90[0]


def d_reuse_trades_reuse_for_certainty(result: ExperimentResult) -> None:
    uncertainty = result.column("uncertainty_frac")
    reuse = result.column("reuse_factor")
    # Larger D_reuse: less reuse, less uncertainty (the paper's tradeoff).
    assert reuse[-1] < reuse[0]
    assert uncertainty[-1] <= uncertainty[0]
