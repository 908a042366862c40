"""Fig. 8: the deployability/precision landscape, quantified.

The paper's Figure 8 is a qualitative scatter (deployability vs precision);
this reproduction backs each bucket with numbers this library actually
measures:

* **precision** — the share of traffic a mechanism controls at sub-0.1%
  granularity (Fig. 9a), how many paths it can choose among (Fig. 11a), and
  how fast it reacts to failure (Fig. 10);
* **deployability** — who must change for the mechanism to work, as an
  ordinal requirement level.
"""

from __future__ import annotations

from typing import Optional

from repro.dns.resolvers import ResolverAssignment
from repro.experiments.harness import ExperimentResult
from repro.scenario import Scenario
from repro.steering.granularity import GranularityAnalysis
from repro.steering.resilience import ResilienceAnalysis
from repro.traffic_manager.failover import default_fig10_paths, run_failover
from repro.util import percentile

#: Ordinal deployment requirements, most deployable first.
DEPLOYABILITY = {
    "anycast": "none (cloud only)",
    "dns": "none (cloud only)",
    "bgp_tuning": "none (cloud only)",
    "sdwan": "enterprise device",
    "painter": "cloud-edge stack",
    "mptcp_client": "every client app/OS",
    "isp_collaboration": "every ISP",
    "future_internet": "new Internet",
}


def run_fig8(scenario: Optional[Scenario] = None) -> ExperimentResult:
    if scenario is None:
        from repro.scenario import tiny_scenario

        scenario = tiny_scenario(seed=3)
    resolvers = ResolverAssignment(scenario)
    granularity = GranularityAnalysis(scenario, resolvers).analyze_all()
    resilience = ResilienceAnalysis(scenario)
    comparisons = resilience.compare_all()
    failover = run_failover(default_fig10_paths())

    median_sdwan_paths = percentile(
        sorted(c.sdwan_paths for c in comparisons), 0.5
    )
    median_painter_paths = percentile(
        sorted(c.painter_best_paths for c in comparisons), 0.5
    )

    result = ExperimentResult(
        experiment_id="fig8",
        title="Deployability vs precision, quantified per mechanism",
        columns=[
            "mechanism",
            "requires",
            "fine_control_share",
            "paths_median",
            "failover_s",
        ],
    )
    fine = {name: g.share_finer_than(0.001) for name, g in granularity.items()}
    result.add_row("anycast", DEPLOYABILITY["anycast"], 0.0, 1, failover.anycast_loss_s)
    result.add_row(
        "dns",
        DEPLOYABILITY["dns"],
        fine["dns"],
        1,
        failover.dns_downtime_s,
    )
    result.add_row(
        "bgp_tuning",
        DEPLOYABILITY["bgp_tuning"],
        fine["bgp"],
        1,
        failover.anycast_reconvergence_s,
    )
    result.add_row(
        "sdwan",
        DEPLOYABILITY["sdwan"],
        1.0,  # the device steers its own flows
        median_sdwan_paths,
        failover.painter_downtime_ms / 1000.0,  # same local detection speed
    )
    result.add_row(
        "painter",
        DEPLOYABILITY["painter"],
        fine["painter"],
        median_painter_paths,
        failover.painter_downtime_ms / 1000.0,
    )
    result.add_note(
        "fine_control_share: traffic steerable at units below 0.1% of a PoP "
        "(Fig. 9a); paths_median: per-UG selectable paths (Fig. 11a); "
        "failover_s: reaction to a path failure (Fig. 10)"
    )
    result.add_note(
        "MPTCP clients / ISP collaboration / future Internets reach PAINTER-"
        "level precision but require "
        + ", ".join(
            DEPLOYABILITY[name]
            for name in ("mptcp_client", "isp_collaboration", "future_internet")
        )
    )
    return result


# -- claims (checked by ``repro report`` at the registry's ``claims_at``) ----


def more_paths_faster_failover(result: ExperimentResult) -> None:
    rows = {row[0]: row for row in result.rows}
    assert rows["painter"][3] > rows["sdwan"][3]  # more paths
    assert rows["painter"][4] < rows["dns"][4]  # faster failover
