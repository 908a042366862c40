"""Per-figure experiment reproductions (see DESIGN.md's experiment index)."""

from typing import Dict

from repro.experiments import (
    ablations,
    enterprise,
    extensions,
    fig3,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig14,
    fig15,
)
from repro.experiments.ablations import run_ablations
from repro.experiments.extensions import (
    run_ext_congestion,
    run_ext_egress,
    run_ext_failover_sweep,
    run_ext_ipv6,
    run_ext_multipath,
)
from repro.experiments.chaos import ChaosConfig, ChaosHarness, run_chaos
from repro.experiments.communities_cmp import communities_summary, run_communities
from repro.experiments.controller import run_controller
from repro.experiments.enterprise import run_enterprise
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig6 import run_fig6a, run_fig6b, run_fig6c
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9a, run_fig9b
from repro.experiments.fig10 import failover_summary, run_fig10
from repro.experiments.fig11 import run_fig11a, run_fig11b
from repro.experiments.fig12 import run_fig12
from repro.experiments.fig14 import run_fig14
from repro.experiments.fig15 import run_fig15a, run_fig15b
from repro.experiments.harness import (
    Experiment,
    ExperimentResult,
    budget_grid,
    config_prefix_subset,
)
from repro.experiments.hotpotato import hotpotato_summary, run_hot_potato
from repro.experiments.optimality import optimality_summary, run_greedy_gap
from repro.experiments.soak import run_soak_experiment, soak_summary

#: ``claims_at`` worlds (see :data:`repro.scenario.CLAIM_WORLDS`).
_PROTOTYPE = {"scenario": "claims-prototype"}
_AZURE = {"scenario": "claims-azure"}

#: Every experiment, by id: the one declaration ``repro run``, ``repro
#: report`` and the smoke test derive from.  Order is report order.
ALL_EXPERIMENTS: Dict[str, Experiment] = {
    "fig3": Experiment(run_fig3, quick=True, claims=(fig3.late_bytes_outlive_dns,),
                       claims_at={"n_flows": 4000, "seed": 0}),
    "fig6a": Experiment(run_fig6a, claims=(fig6.third_of_the_prefixes,),
                        claims_at={**_AZURE, "painter_max_budget": 15, "learning_iterations": 2}),
    "fig6b": Experiment(run_fig6b, claims=(fig6.tenth_of_the_prefixes,),
                        claims_at={**_PROTOTYPE, "painter_max_budget": 12, "learning_iterations": 3}),
    "fig6c": Experiment(run_fig6c, claims=(fig6.learning_narrows_uncertainty,),
                        claims_at={**_PROTOTYPE, "painter_max_budget": 10, "iterations": 4}),
    "fig7": Experiment(run_fig7, claims=(fig7.dynamic_retains_static_degrades,),
                       claims_at={**_PROTOTYPE, "budgets": (2, 6, 12), "days": (0, 7, 14, 21, 28),
                                  "learning_iterations": 2}),
    "fig8": Experiment(run_fig8, quick=True, claims=(fig8.more_paths_faster_failover,),
                       claims_at=_PROTOTYPE),
    "fig9a": Experiment(run_fig9a, claims=(fig9.finest_granularity,),
                        claims_at={**_PROTOTYPE, "top_pops": 10}),
    "fig9b": Experiment(run_fig9b, claims=(fig9.dns_steering_sacrifices_benefit,),
                        claims_at={**_PROTOTYPE, "painter_max_budget": 12, "learning_iterations": 2}),
    "fig10": Experiment(run_fig10, quick=True, claims=(fig10.rtt_timescale_failover,)),
    "fig11a": Experiment(run_fig11a, quick=True, claims=(fig11.exposes_more_paths_than_sdwan,),
                         claims_at=_PROTOTYPE),
    "fig11b": Experiment(run_fig11b, quick=True, claims=(fig11.avoids_more_ases_than_sdwan,),
                         claims_at=_PROTOTYPE),
    "fig12": Experiment(run_fig12, quick=True,
                        claims=(fig12.coverage_and_error_grow_with_uncertainty,),
                        claims_at={**_PROTOTYPE,
                                   "uncertainties_km": (100, 200, 300, 400, 450, 500, 600, 700)}),
    "fig14": Experiment(run_fig14, claims=(fig14.painter_ranges_stay_narrow,),
                        claims_at={**_PROTOTYPE, "painter_max_budget": 10}),
    "fig15a": Experiment(run_fig15a, claims=(fig15.prefixes_grow_with_deployment,),
                         claims_at={"scales": (0.4, 0.7, 1.0), "max_budget": 20, "seed": 0}),
    "fig15b": Experiment(run_fig15b, claims=(fig15.d_reuse_trades_reuse_for_certainty,),
                         claims_at={**_PROTOTYPE, "max_budget": 15,
                                    "d_reuse_sweep_km": (500, 1000, 1500, 2000, 2500, 3000)}),
    "ablations": Experiment(run_ablations, claims=(ablations.reuse_holds_its_own,
                                                   ablations.learning_narrows_uncertainty,
                                                   ablations.weighting_matters),
                            claims_at=_PROTOTYPE),
    "enterprise": Experiment(run_enterprise, claims=(enterprise.slos_met_no_worse_than_anycast,
                                                     enterprise.workload_covers_every_site),
                             claims_at=_PROTOTYPE),
    "chaos": Experiment(run_chaos, quick=True),
    "communities": Experiment(run_communities, digest=communities_summary),
    "controller": Experiment(run_controller),
    "hotpotato": Experiment(run_hot_potato, digest=hotpotato_summary),
    "optimality": Experiment(run_greedy_gap, digest=optimality_summary),
    "soak": Experiment(run_soak_experiment, digest=soak_summary),
    "ext_congestion": Experiment(run_ext_congestion, quick=True,
                                 claims=(extensions.spread_delivers_at_peak,), claims_at=_PROTOTYPE),
    "ext_egress": Experiment(run_ext_egress, claims=(extensions.combined_gain_beats_either,),
                             claims_at=_PROTOTYPE),
    "ext_multipath": Experiment(run_ext_multipath, quick=True,
                                claims=(extensions.multipath_keeps_delivering,), claims_at=_PROTOTYPE),
    "ext_ipv6": Experiment(run_ext_ipv6, quick=True, claims=(extensions.v6_peering_loses_paths,),
                           claims_at=_PROTOTYPE),
    "ext_failover_sweep": Experiment(run_ext_failover_sweep, quick=True,
                                     claims=(extensions.downtime_scales_with_rtt,)),
}

__all__ = [
    "ALL_EXPERIMENTS",
    "run_ablations",
    "run_enterprise",
    "ChaosConfig",
    "ChaosHarness",
    "run_chaos",
    "run_communities",
    "run_controller",
    "run_hot_potato",
    "run_ext_congestion",
    "run_ext_egress",
    "run_ext_failover_sweep",
    "run_ext_ipv6",
    "run_ext_multipath",
    "Experiment",
    "ExperimentResult",
    "budget_grid",
    "config_prefix_subset",
    "run_greedy_gap",
    "failover_summary",
    "run_fig10",
    "run_fig11a",
    "run_fig11b",
    "run_fig12",
    "run_fig14",
    "run_fig15a",
    "run_fig15b",
    "run_fig3",
    "run_fig6a",
    "run_fig6b",
    "run_fig6c",
    "run_fig7",
    "run_fig8",
    "run_fig9a",
    "run_fig9b",
    "run_soak_experiment",
]
