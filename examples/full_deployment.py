"""End-to-end PAINTER deployment: optimize, install, steer.

Combines all three layers the paper describes:

1. the Advertisement Orchestrator computes a prefix->peering configuration
   (Algorithm 1, with learning);
2. the installation layer binds it to real /24s from the cloud's address
   pool, announces them, and stands up TM-PoPs;
3. a TM-Edge in one enterprise resolves the available destinations, measures
   them, and steers flows onto the best ingress path.

Run with::

    python examples/full_deployment.py
"""

from __future__ import annotations

from repro import OrchestratorConfig, PainterOrchestrator, prototype_scenario
from repro.core.installation import DEFAULT_SERVICE, install_configuration
from repro.traffic_manager.flows import FiveTuple
from repro.traffic_manager.tm_edge import TMEdge


def main() -> None:
    # 1. Optimize advertisements.
    scenario = prototype_scenario(seed=4, n_ugs=200)
    print(scenario.describe())
    orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=8))
    orchestrator.learn(iterations=2)
    config = orchestrator.solve()
    print(f"computed {config}\n")

    # 2. Install: bind to real /24s, announce, create TM-PoPs.
    installation = install_configuration(scenario, config)
    print(f"anycast prefix: {installation.anycast_cidr}")
    for installed in installation.prefixes:
        print(
            f"  {installed.cidr}: {len(installed.peering_ids)} peerings "
            f"at PoPs {sorted(installed.pop_names)[:3]}"
            + ("..." if len(installed.pop_names) > 3 else "")
        )

    # 3. A TM-Edge in one enterprise steers traffic.
    ug = max(
        scenario.user_groups,
        key=lambda u: scenario.anycast_latency_ms(u) - scenario.best_possible_latency_ms(u),
    )
    print(f"\nenterprise UG: {ug}")
    print(f"  anycast latency      : {scenario.anycast_latency_ms(ug):6.1f} ms")

    edge = TMEdge(edge_ip="203.0.113.50", directory=installation.directory)
    available = edge.resolve_service(DEFAULT_SERVICE)

    # Measure each destination: ground-truth latency via the ingress this
    # UG's traffic would actually take for that prefix's advertisement.
    rtts = {}
    for cidr in available:
        if cidr == installation.anycast_cidr:
            rtts[cidr] = scenario.anycast_latency_ms(ug)
            continue
        installed = next(p for p in installation.prefixes if p.cidr == cidr)
        latency = scenario.routing.latency_for(ug, installed.peering_ids)
        if latency is not None:
            rtts[cidr] = latency
    selected = edge.record_measurements(DEFAULT_SERVICE, rtts)
    print(f"  best PAINTER prefix  : {rtts[selected]:6.1f} ms via {selected}")
    print(f"  improvement          : {scenario.anycast_latency_ms(ug) - rtts[selected]:6.1f} ms")

    flow = FiveTuple(
        proto="tcp", src_ip="192.168.7.7", src_port=40000, dst_ip="1.1.1.1", dst_port=443
    )
    pinned = edge.admit_flow(DEFAULT_SERVICE, flow, now_s=0.0)
    print(f"  new flow pinned to   : {pinned}")


if __name__ == "__main__":
    main()
