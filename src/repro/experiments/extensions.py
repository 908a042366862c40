"""Extension experiments beyond the paper's figures.

The paper's objective is a *function of latency* and it motivates congestion
mitigation explicitly ("mitigates network problems such as path inflation
and congestion", §1) but evaluates only latency.  These experiments exercise
the natural extensions this library implements:

* **congestion** — the paths PAINTER exposes also carry load: spreading
  flows across them with the load-aware selector keeps effective latency
  bounded long after a single pinned path saturates;
* **multipath** — an MPTCP-style edge proxy (§2.3/§3.2's alternative edge
  presence) aggregates exposed paths and rides out a path failure in one
  subflow RTT.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.experiments.harness import ExperimentResult
from repro.scenario import Scenario
from repro.traffic_manager.load_balancing import LoadAwareSelector, effective_latency_ms
from repro.traffic_manager.multipath import Subflow, failover_comparison


def _exposed_destinations(scenario: Scenario, budget: int = 6) -> List[tuple]:
    """(prefix label, rtt_ms) destinations PAINTER exposes for the most
    inflation-suffering UG, anycast included."""
    orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=budget))
    orchestrator.learn(iterations=2)
    config = orchestrator.solve()
    ug = max(
        scenario.user_groups,
        key=lambda u: scenario.anycast_latency_ms(u) - scenario.best_possible_latency_ms(u),
    )
    (row,) = scenario.routing.latencies(
        [ug], [config.peerings_for(prefix) for prefix in config.prefixes]
    ).tolist()
    return [("anycast", scenario.anycast_latency_ms(ug))] + [
        (f"prefix-{prefix}", latency)
        for prefix, latency in zip(config.prefixes, row)
        if latency != math.inf
    ]


def run_ext_congestion(
    scenario: Optional[Scenario] = None,
    capacity_per_destination: float = 100.0,
    demand_levels: Sequence[int] = (50, 100, 200, 400, 600),
) -> ExperimentResult:
    """Load-aware spreading over exposed paths vs a single pinned path."""
    if scenario is None:
        from repro.scenario import tiny_scenario

        scenario = tiny_scenario(seed=3)
    destinations = _exposed_destinations(scenario)
    best_rtt = min(rtt for _name, rtt in destinations)

    result = ExperimentResult(
        experiment_id="ext_congestion",
        title="Congestion: single best path vs load-aware spread over exposed paths",
        columns=[
            "flows",
            "single_path_latency_ms",
            "single_delivered_frac",
            "spread_max_latency_ms",
            "spread_delivered_frac",
        ],
    )
    for demand in demand_levels:
        # Single path: everything pinned to the lowest-latency destination.
        utilization = demand / capacity_per_destination
        single_latency = effective_latency_ms(best_rtt, min(utilization, 0.999))
        single_delivered = min(1.0, capacity_per_destination / demand)
        if utilization >= 1.0:
            single_latency = float("inf")

        # Load-aware spread across every exposed destination.
        selector = LoadAwareSelector()
        for name, rtt in destinations:
            selector.add_destination(name, capacity=capacity_per_destination, base_rtt_ms=rtt)
        placed = 0
        for _ in range(demand):
            if selector.assign_flow() is not None:
                placed += 1
        # Mean effective latency over the flows actually placed (destinations
        # the spread never used don't count against it).
        used = {
            name: load
            for name, load in selector.utilizations().items()
            if load > 0
        }
        effective = selector.effective_latencies()
        total_load = sum(used.values())
        spread_latency = (
            sum(effective[name] * load for name, load in used.items()) / total_load
            if total_load > 0
            else float("inf")
        )
        result.add_row(
            demand,
            single_latency if single_latency != float("inf") else -1.0,
            single_delivered,
            spread_latency if spread_latency != float("inf") else -1.0,
            placed / demand,
        )
    result.add_note(f"destinations exposed: {len(destinations)}; -1 marks saturation")
    return result


def run_ext_multipath(
    scenario: Optional[Scenario] = None,
    demand_mbps: float = 60.0,
    single_path_detection_ms: float = 26.0,
) -> ExperimentResult:
    """MPTCP-style subflows over exposed paths: failover in one subflow RTT."""
    if scenario is None:
        from repro.scenario import tiny_scenario

        scenario = tiny_scenario(seed=3)
    destinations = _exposed_destinations(scenario)
    subflows = [
        Subflow(prefix=name, rtt_ms=rtt, capacity_mbps=50.0)
        for name, rtt in destinations[:4]
    ]

    result = ExperimentResult(
        experiment_id="ext_multipath",
        title="Multipath edge proxy: outage and delivery after a path failure",
        columns=[
            "failed_path",
            "multipath_outage_ms",
            "single_path_outage_ms",
            "multipath_delivered_frac",
        ],
    )
    from repro.traffic_manager.multipath import MultipathConnection

    for subflow in subflows:
        multipath_ms, single_ms = failover_comparison(
            subflows,
            failed_prefix=subflow.prefix,
            demand_mbps=demand_mbps,
            single_path_detection_ms=single_path_detection_ms,
        )
        degraded = MultipathConnection(subflows).fail_subflow(subflow.prefix)
        result.add_row(
            subflow.prefix,
            multipath_ms,
            single_ms,
            degraded.delivered_fraction(demand_mbps),
        )
    result.add_note(
        "multipath keeps delivering on surviving subflows (delivered_frac) and "
        "reschedules within one subflow RTT; a single-path tunnel is dark for "
        "the whole detection timeout"
    )
    return result


def run_ext_ipv6(scenario: Optional[Scenario] = None) -> ExperimentResult:
    """§2.4's IPv6 rejection, quantified: exposable paths and FIB cost."""
    from repro.topology.ipv6 import (
        DualStackCatalog,
        DualStackConfig,
        analyze_ipv6_feasibility,
    )

    if scenario is None:
        from repro.scenario import tiny_scenario

        scenario = tiny_scenario(seed=3)
    result = ExperimentResult(
        experiment_id="ext_ipv6",
        title="IPv6-only advertisement feasibility (the paper's §2.4 argument)",
        columns=[
            "transit_v6_prob",
            "peer_v6_prob",
            "v6_peering_frac",
            "exposable_path_frac",
            "fib_cost_factor",
        ],
    )
    for transit_p, peer_p in ((0.85, 0.55), (0.95, 0.75), (1.0, 1.0)):
        dual = DualStackCatalog(
            scenario.deployment,
            DualStackConfig(seed=1, transit_v6_prob=transit_p, peer_v6_prob=peer_p),
        )
        feasibility = analyze_ipv6_feasibility(scenario.catalog, dual)
        result.add_row(
            transit_p,
            peer_p,
            feasibility.v6_peering_fraction,
            feasibility.exposable_path_fraction,
            feasibility.fib_cost_factor,
        )
    result.add_note(
        "even full dual-stack keeps the 8x FIB cost; at realistic v6 peering "
        "rates a v6-only PAINTER cannot expose all the paths"
    )
    return result


def run_ext_egress(scenario: Optional[Scenario] = None) -> ExperimentResult:
    """§6's coexistence claim: PAINTER + egress TE compose additively."""
    from repro.egress.coexistence import evaluate_coexistence

    if scenario is None:
        from repro.scenario import tiny_scenario

        scenario = tiny_scenario(seed=3)
    orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=5))
    orchestrator.learn(iterations=2)
    config = orchestrator.solve()
    outcome = evaluate_coexistence(scenario, config)
    result = ExperimentResult(
        experiment_id="ext_egress",
        title="Coexistence with egress traffic engineering (end-to-end, weighted ms)",
        columns=["combination", "latency_weighted_ms", "gain_vs_neither"],
    )
    result.add_row("neither", outcome.neither, 0.0)
    result.add_row("painter_only", outcome.painter_only, outcome.painter_gain)
    result.add_row("egress_only", outcome.egress_only, outcome.egress_gain)
    result.add_row("both", outcome.both, outcome.combined_gain)
    result.add_note(f"additivity (combined / sum of individual): {outcome.additivity:.2f}")
    return result


def run_ext_failover_sweep(
    rtt_scale_ms: Sequence[float] = (10.0, 20.0, 40.0, 80.0),
) -> ExperimentResult:
    """Fig. 10 generalized: failover timescales across base RTTs.

    PAINTER's detection time is proportional to the RTT (1.3 RTT), so its
    advantage over anycast/DNS holds across the whole latency range a global
    deployment sees.
    """
    from repro.traffic_manager.failover import FailoverConfig, PathSpec, run_failover

    result = ExperimentResult(
        experiment_id="ext_failover_sweep",
        title="Failover timescales across base RTTs",
        columns=[
            "base_rtt_ms",
            "painter_downtime_ms",
            "anycast_loss_ms",
            "anycast_reconvergence_s",
            "dns_downtime_s",
        ],
    )
    for rtt in rtt_scale_ms:
        paths = [
            PathSpec(
                prefix="1.1.1.0/24",
                pop_name="pop-a",
                base_rtt_ms=rtt * 1.25,
                is_anycast=True,
                backup_rtt_ms=rtt * 1.7,
            ),
            PathSpec(prefix="2.2.2.0/24", pop_name="pop-a", base_rtt_ms=rtt),
            PathSpec(prefix="3.3.3.0/24", pop_name="pop-b", base_rtt_ms=rtt * 1.5),
        ]
        outcome = run_failover(paths, FailoverConfig(seed=1))
        result.add_row(
            rtt,
            outcome.painter_downtime_ms,
            outcome.anycast_loss_s * 1000.0,
            outcome.anycast_reconvergence_s,
            outcome.dns_downtime_s,
        )
    result.add_note("PAINTER downtime scales with RTT (1.3x detection); the others do not")
    return result


# -- claims (checked by ``repro report`` at the registry's ``claims_at``) ----


def spread_delivers_at_peak(result: ExperimentResult) -> None:
    final = result.rows[-1]
    assert final[4] == 1.0  # spread still delivers at the highest demand
    assert final[2] < 1.0  # single path long saturated


def multipath_keeps_delivering(result: ExperimentResult) -> None:
    assert all(row[3] >= 0.99 for row in result.rows)


def v6_peering_loses_paths(result: ExperimentResult) -> None:
    exposable = result.column("exposable_path_frac")
    assert exposable[0] < 0.85  # realistic v6 peering loses paths


def combined_gain_beats_either(result: ExperimentResult) -> None:
    gains = {row[0]: row[2] for row in result.rows}
    assert gains["both"] >= max(gains["painter_only"], gains["egress_only"])


def downtime_scales_with_rtt(result: ExperimentResult) -> None:
    painter = result.column("painter_downtime_ms")
    assert painter == sorted(painter)  # RTT-proportional
