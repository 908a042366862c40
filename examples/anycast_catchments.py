"""Anycast catchments: where does traffic actually land?

Tabulates per-PoP catchments under the default anycast configuration and
surfaces the inflated tail — UGs hauled far past their closest PoP, the
Figure 1 pathology that motivates PAINTER.  Then shows how much of that tail
PAINTER's advertisements recover.

Run with::

    python examples/anycast_catchments.py
"""

from __future__ import annotations

from repro import OrchestratorConfig, PainterOrchestrator, prototype_scenario
from repro.core.benefit import tm_choice
from repro.steering.catchment import CatchmentAnalysis


def main() -> None:
    scenario = prototype_scenario(seed=7, n_ugs=250)
    analysis = CatchmentAnalysis(scenario)
    print(scenario.describe())

    volumes = analysis.catchment_volumes()
    top = sorted(volumes, key=lambda name: -volumes[name])[:8]
    total = sum(volumes.values())
    print("\nlargest anycast catchments (by traffic volume):")
    for pop_name in top:
        share = volumes[pop_name] / total
        print(f"  {pop_name:<22} {100 * share:5.1f}%  {'#' * int(60 * share)}")

    print(
        f"\n{100 * analysis.fraction_at_closest_pop():.0f}% of UGs land at their "
        f"geographically closest PoP; "
        f"{100 * analysis.fraction_within_km(1000):.0f}% within 1,000 km of it "
        "(prior work: ~90% for a large CDN)"
    )
    percentiles = analysis.inflation_percentiles((0.5, 0.9, 0.99))
    print(
        "anycast inflation (extra km past the closest PoP): "
        + ", ".join(f"p{int(100 * f)}={km:,.0f} km" for f, km in percentiles.items())
    )

    print("\nthe Figure 1 tail — farthest-hauled UGs, and what PAINTER recovers:")
    orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=8))
    orchestrator.learn(iterations=2)
    config = orchestrator.solve()
    by_id = {ug.ug_id: ug for ug in scenario.user_groups}
    entries = analysis.worst_entries(5)
    ugs = [by_id[entry.ug_id] for entry in entries]
    # The Traffic Manager's gain over anycast on each UG's realized catchment.
    catchment = scenario.routing.latencies(
        ugs, [config.peerings_for(prefix) for prefix in config.prefixes]
    )
    _, gains = tm_choice([scenario.anycast_latency_ms(ug) for ug in ugs], catchment)
    for entry, ug, gain in zip(entries, ugs, gains.tolist()):
        print(
            f"  {ug.metro.name:<16} landed {entry.pop_name:<22} "
            f"(+{entry.inflation_km:6,.0f} km past {entry.closest_pop_name}); "
            f"PAINTER recovers {gain:6.1f} ms"
        )


if __name__ == "__main__":
    main()
