"""``learn-p15``: learning iterations on a 15-PoP world."""

from __future__ import annotations

import random
from typing import Any, Dict

import repro.core.orchestrator as orchestrator_module
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import build_scenario, tiny_scenario
from repro.topology.builder import TopologyConfig
from repro.usergroups.generation import UserGroupConfig

from bench import WORLD_SEED
from bench.workloads import (
    Ops,
    SolverDeployment,
    Workload,
    materialize_diagnostic,
)


#: User groups of the 15-PoP world.  An iteration's cost grows faster than
#: linearly with them (0.4-0.7 s at 60, 3-6 s at ISSUE.md's 200), and a step
#: has to be short for a run to hold enough samples of it (README "Noise").
N_UGS = 60


def p15_scenario(seed: int):
    return build_scenario(
        "p15",
        TopologyConfig(
            seed=seed, n_pops=15, n_tier1=4, n_transit=8, n_regional=36, n_stub=180
        ),
        UserGroupConfig(seed=seed + 1, n_ugs=N_UGS),
    )


class LearnP15(Workload):
    name = "learn-p15"
    why = (
        "every UG has learned state after iteration 0, so step time is the "
        "scalar learned-UG Eq.-2 path that azure-deltas never enters"
    )
    # Each iteration costs more than the last (preference pairs accumulate).
    steps_full = 4
    steps_quick = 3

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.budget = 4 if self.quick else 10
        self._factory = tiny_scenario if self.quick else p15_scenario

    def build(self) -> SolverDeployment:
        with self.rec.span("scenario.build"):
            world = self._factory(WORLD_SEED)
        with self.rec.span("orchestrator.construct"):
            orch = PainterOrchestrator(
                world, OrchestratorConfig(prefix_budget=self.budget)
            )
            # The seed draws the traffic the learner sees: every UG's volume
            # is rescaled before the first solve.
            rng = random.Random(self.seed)
            for ug in world.user_groups:
                orch.apply_volume_shift(ug.ug_id, ug.volume * rng.uniform(0.98, 1.02))
        return SolverDeployment(world, orch)

    def cold_solve(self, dep: SolverDeployment):
        dep.config = dep.orch.solve()
        return dep.config

    def warm_up(self, dep: SolverDeployment, config) -> None:
        """Finish iteration 0 (its solve was the cold solve) and hook the
        calls ``learn`` makes into the layers below it."""
        orch = dep.orch
        with self.rec.span("orchestrator.observe"):
            orch.execute_and_observe(config)
        rec = self.rec
        rec.wrap(orch, "solve", "orchestrator.learned_solve")
        rec.wrap(orch, "execute_and_observe", "orchestrator.observe")
        rec.wrap(orch.evaluator, "evaluate", "benefit.evaluate")
        rec.wrap(orch.evaluator, "expected_benefit", "benefit.evaluate")
        rec.wrap(
            orchestrator_module, "realized_benefit", "ground_truth.realized_benefit"
        )

    def step(self, dep: SolverDeployment, item: int) -> None:
        result = dep.orch.learn(iterations=1)
        dep.config = result.last_config

    def teardown(self, dep: SolverDeployment) -> None:
        dep.orch.close()

    def final_config(self, dep: SolverDeployment):
        return dep.config

    def work(self, dep: SolverDeployment) -> Dict[str, Any]:
        model = dep.orch.model
        return {
            "learned_ugs": len(model.learned_ug_ids),
            "preference_pairs": model.preference_count(),
            "observations": model.observation_count,
        }

    def check(self, dep: SolverDeployment, cold_config, ops: Ops) -> None:
        learned = len(dep.orch.model.learned_ug_ids)
        ops.check(
            learned >= 0.9 * len(dep.world.user_groups),
            f"only {learned} UGs acquired learned state",
        )

    def diagnostics(
        self, dep: SolverDeployment, cold_s: float, ops: Ops
    ) -> Dict[str, float]:
        materialize_diagnostic(self.rec, self._factory(WORLD_SEED), self.budget)
        model = dep.orch.model
        return {
            "routing_model.learned_ugs": float(len(model.learned_ug_ids)),
            "routing_model.preference_pairs": float(model.preference_count()),
        }
