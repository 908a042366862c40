"""Per-figure experiment reproductions (see DESIGN.md's experiment index)."""

from typing import Dict

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
from repro.experiments.replay import (
    ReplayConfig,
    ReplayResult,
    run_replay,
    run_traffic_replay,
)
from repro.experiments.soak import run_soak_experiment, soak_summary

#: Every experiment, by id: the one declaration ``repro run``, ``repro
#: report`` and the smoke test derive from.  Order is report order.
ALL_EXPERIMENTS: Dict[str, Experiment] = {
    "fig3": Experiment(run_fig3, quick=True),
    "fig6a": Experiment(run_fig6a),
    "fig6b": Experiment(run_fig6b),
    "fig6c": Experiment(run_fig6c),
    "fig7": Experiment(run_fig7),
    "fig8": Experiment(run_fig8, quick=True),
    "fig9a": Experiment(run_fig9a),
    "fig9b": Experiment(run_fig9b),
    "fig10": Experiment(run_fig10, quick=True),
    "fig11a": Experiment(run_fig11a, quick=True),
    "fig11b": Experiment(run_fig11b, quick=True),
    "fig12": Experiment(run_fig12, quick=True),
    "fig14": Experiment(run_fig14),
    "fig15a": Experiment(run_fig15a),
    "fig15b": Experiment(run_fig15b),
    "chaos": Experiment(run_chaos, quick=True),
    "communities": Experiment(run_communities, digest=communities_summary),
    "controller": Experiment(run_controller),
    "hotpotato": Experiment(run_hot_potato, digest=hotpotato_summary),
    "optimality": Experiment(run_greedy_gap, digest=optimality_summary),
    "replay": Experiment(run_replay),
    "soak": Experiment(run_soak_experiment, digest=soak_summary),
    "ext_congestion": Experiment(run_ext_congestion, quick=True),
    "ext_egress": Experiment(run_ext_egress),
    "ext_multipath": Experiment(run_ext_multipath, quick=True),
    "ext_ipv6": Experiment(run_ext_ipv6, quick=True),
    "ext_failover_sweep": Experiment(run_ext_failover_sweep, quick=True),
}

__all__ = [
    "ALL_EXPERIMENTS",
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
    "ReplayConfig",
    "ReplayResult",
    "run_replay",
    "run_traffic_replay",
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
