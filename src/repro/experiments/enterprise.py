"""The enterprise/SLO workload (the paper's §1-§2 motivation).

A Fig. 2-style enterprise (HQ, five branches, remote employees) sits in the
scenario's UG population; PAINTER gets 8 prefixes after two learning
iterations.  Per site the table reports its hour of generated flows and its
anycast vs PAINTER latency; the notes carry the headcount-weighted SLO
attainment under each.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.enterprise import (
    EnterpriseConfig,
    analyze_slos,
    build_enterprise,
    generate_workload,
    summarize_slos,
)
from repro.experiments.harness import ExperimentResult
from repro.scenario import Scenario, prototype_scenario


def run_enterprise(scenario: Optional[Scenario] = None) -> ExperimentResult:
    scenario = scenario or prototype_scenario(seed=0, n_ugs=300)
    enterprise = build_enterprise(scenario, EnterpriseConfig(seed=3, n_branches=5))
    orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=8))
    orchestrator.learn(iterations=2)
    outcomes = analyze_slos(scenario, enterprise, orchestrator.solve())
    flows = generate_workload(enterprise, duration_s=3600.0, seed=1)

    result = ExperimentResult(
        experiment_id="enterprise",
        title="Enterprise sites: workload and latency under anycast vs PAINTER",
        columns=["site", "kind", "headcount", "edge_stack", "flows", "anycast_ms", "painter_ms"],
    )
    flows_per_site = Counter(flow.site_name for flow in flows)
    latencies = {o.site_name: (o.anycast_latency_ms, o.painter_latency_ms) for o in outcomes}
    for site in enterprise.sites:
        result.add_row(
            site.name,
            site.kind.value,
            site.headcount,
            "yes" if site.has_edge_stack else "no",
            flows_per_site[site.name],
            *latencies[site.name],
        )
    summary = summarize_slos(enterprise, outcomes)
    result.add_note(
        f"headcount-weighted SLOs met: anycast {summary.anycast_met_fraction:.3f}, "
        f"PAINTER {summary.painter_met_fraction:.3f}; "
        f"mean improvement {summary.mean_improvement_ms:.1f} ms"
    )
    result.add_note(
        "painter_ms is the best path PAINTER exposes; a site without an edge "
        "stack cannot steer onto it and stays on anycast"
    )
    result.evidence.update(enterprise=enterprise, summary=summary, flows=flows)
    return result


# -- claims (checked by ``repro report`` at the registry's ``claims_at``) ----


def slos_met_no_worse_than_anycast(result: ExperimentResult) -> None:
    summary = result.evidence["summary"]
    # PAINTER cannot hurt and typically converts some misses into hits.
    assert summary.painter_met_fraction >= summary.anycast_met_fraction
    assert summary.mean_improvement_ms >= 0.0


def workload_covers_every_site(result: ExperimentResult) -> None:
    enterprise = result.evidence["enterprise"]
    flows = result.evidence["flows"]
    assert len(flows) > 100
    sites = {flow.site_name for flow in flows}
    assert sites == {site.name for site in enterprise.sites}
