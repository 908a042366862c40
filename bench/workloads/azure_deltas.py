"""``azure-deltas``: warm re-solves of the azure deployment under a delta stream."""

from __future__ import annotations

import math
import random
import time
from typing import Any, Dict, List, Tuple

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import azure_scenario, prototype_scenario, tiny_scenario

from bench import WORLD_SEED
from bench.workloads import (
    Ops,
    SolverDeployment,
    Workload,
    config_pairs,
    golden_pairs,
    materialize_diagnostic,
)

#: One delta bucket per step, cycling through this list.  Four classes use
#: the warm-start memo differently: a volume shift patches memoized sums
#: (cheap unless the accept order changes), a burst of 8 shifts usually
#: changes it, a down/up of a peering *in* the config (its first prefix)
#: forces fresh re-evaluation, a down/up of one *outside* it is a full reuse.  Three
#: steps are cheap by construction and six expensive, so the median stays on
#: the expensive mode.
PATTERN = (
    "volume", "burst", "down_chosen", "up_chosen", "burst",
    "down_unchosen", "up_unchosen", "burst", "burst",
)
#: Span that times the warm solve of each bucket kind.
SOLVE_SPAN = {
    "volume": "orchestrator.warm_volume",
    "burst": "orchestrator.warm_burst",
    "down_chosen": "orchestrator.warm_struct_chosen",
    "up_chosen": "orchestrator.warm_struct_chosen",
    "down_unchosen": "orchestrator.warm_struct_unchosen",
    "up_unchosen": "orchestrator.warm_struct_unchosen",
}
BURST_SHIFTS = 8
#: User groups of the azure world the passes run on.  The preset's 1200 cost
#: 5 s per cold solve and 1-2 s per step here, so a run held three samples of
#: each; a tenth of them (solve time is linear in UGs, the deployment's 40
#: PoPs and 1087 peerings are unchanged) gives a dozen, each short enough
#: to be timed steadily (README "Noise").
N_UGS = 120


class AzureDeltas(Workload):
    name = "azure-deltas"
    why = (
        "sparse lazy-greedy and the warm-start memo do all the work; "
        "the learned path, data plane and persistence do none"
    )
    steps_full = len(PATTERN)
    steps_quick = len(PATTERN)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.budget = 4 if self.quick else 8
        # The seed draws how far each volume moves; which user groups move and
        # which peerings flap is the world's (README "Seeds").
        self._rng = random.Random(self.seed)
        self._targets = random.Random(WORLD_SEED)
        self._base_volume: Dict[int, float] = {}
        self._down: Dict[str, int] = {}
        self.stats = {"reused": 0, "patched": 0, "fresh": 0}
        self.diverged = 0

    def _world(self):
        if self.quick:
            return tiny_scenario(WORLD_SEED)
        return azure_scenario(WORLD_SEED, n_ugs=N_UGS)

    def build(self) -> SolverDeployment:
        with self.rec.span("scenario.build"):
            world = self._world()
        with self.rec.span("orchestrator.construct"):
            orch = PainterOrchestrator(
                world, OrchestratorConfig(prefix_budget=self.budget)
            )
        return SolverDeployment(world, orch)

    def cold_solve(self, dep: SolverDeployment):
        dep.config = dep.orch.solve_warm()
        return dep.config

    def warm_up(self, dep: SolverDeployment, config) -> None:
        self._base_volume = {ug.ug_id: ug.volume for ug in dep.world.user_groups}

    def next_item(self, dep: SolverDeployment, index: int) -> Tuple[str, List[tuple]]:
        """The bucket of step ``index``: ``(kind, mutations)``."""
        kind = PATTERN[index % len(PATTERN)]
        rng = self._rng
        targets = self._targets
        if kind in ("volume", "burst"):
            count = 1 if kind == "volume" else BURST_SHIFTS
            ugs = targets.sample(dep.world.user_groups, count)
            return kind, [
                (
                    "volume",
                    ug.ug_id,
                    self._base_volume[ug.ug_id]
                    * targets.uniform(0.75, 1.33)
                    * rng.uniform(0.98, 1.02),
                )
                for ug in ugs
            ]
        side = kind.split("_")[1]
        if kind.startswith("up_"):
            # Heal the session this side's previous step took down (a
            # truncated pattern can start on an "up": then nothing to heal).
            pid = self._down.pop(side, None)
            return kind, [] if pid is None else [("peering", pid, True)]
        config = dep.config
        disabled = dep.orch.disabled_peerings
        if side == "chosen":
            # From the first prefix: every later prefix is then re-evaluated,
            # so the step costs the same whichever peering the seed draws.
            pool = config.peerings_for(config.prefixes[0])
        else:
            chosen = config.all_peering_ids()
            pool = {
                p.peering_id
                for p in dep.world.deployment.peerings
                if p.peering_id not in chosen
            }
        pid = targets.choice(sorted(pool - disabled))
        self._down[side] = pid
        return kind, [("peering", pid, False)]

    def step(self, dep: SolverDeployment, item: Tuple[str, List[tuple]]) -> None:
        kind, mutations = item
        orch = dep.orch
        with self.rec.span("orchestrator.apply_delta"):
            for what, target, value in mutations:
                if what == "volume":
                    orch.apply_volume_shift(target, value)
                else:
                    orch.set_peering_enabled(target, value)
        with self.rec.span(SOLVE_SPAN[kind]):
            dep.config = orch.solve_warm()
        stats = orch.last_warm_stats
        self.stats["reused"] += stats.reused_evals
        self.stats["patched"] += stats.patched_evals
        self.stats["fresh"] += stats.fresh_evals
        self.diverged += int(stats.diverged)

    def teardown(self, dep: SolverDeployment) -> None:
        dep.orch.close()

    def final_config(self, dep: SolverDeployment):
        return dep.config

    def work(self, dep: SolverDeployment) -> Dict[str, Any]:
        out = {f"warm_{key}_evals": value for key, value in self.stats.items()}
        out["warm_diverged_solves"] = self.diverged
        return out

    def check(self, dep: SolverDeployment, cold_config, ops: Ops) -> None:
        if self.quick:
            _check_golden(ops, "tiny_seed0", cold_config)
        # warm == cold: a fresh orchestrator over the same mutated world
        # (volume shifts live in the shared world; toggles are re-applied).
        fresh = PainterOrchestrator(
            dep.world, OrchestratorConfig(prefix_budget=self.budget)
        )
        try:
            for pid in sorted(dep.orch.disabled_peerings):
                fresh.set_peering_enabled(pid, False)
            cold = fresh.solve()
        finally:
            fresh.close()
        ops.check(
            config_pairs(cold) == config_pairs(dep.config),
            "warm re-solve differs from a cold solve of the same world",
        )

    def diagnostics(
        self, dep: SolverDeployment, cold_s: float, ops: Ops
    ) -> Dict[str, float]:
        """The solve-time-vs-instance-size curve (ROADMAP item 1's growth
        check): cold solves at one budget over three world sizes, and the
        least-squares exponent of time against UG x peering slots.  The
        azure point is the full 1200-UG preset, whose configuration must
        equal the ``azure_seed0`` golden."""
        materialize_diagnostic(self.rec, self._world(), self.budget)
        out = {
            f"orchestrator.warm_{key}_evals": float(self.stats[key])
            for key in ("reused", "patched", "fresh")
        }
        if self.quick:
            return out
        points = []
        for label, factory in (
            ("tiny", tiny_scenario),
            ("prototype", prototype_scenario),
            ("azure", azure_scenario),
        ):
            world = factory(WORLD_SEED)
            orch = PainterOrchestrator(
                world, OrchestratorConfig(prefix_budget=self.budget)
            )
            started = time.perf_counter()
            config = orch.solve_warm()
            wall = time.perf_counter() - started
            orch.close()
            out[f"scaling.cold_solve_s.{label}"] = wall
            points.append((_slots(world), wall))
        _check_golden(ops, "azure_seed0", config)
        xs = [math.log(size) for size, _wall in points]
        ys = [math.log(wall) for _size, wall in points]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        out["scaling.exponent"] = sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        ) / sum((x - mean_x) ** 2 for x in xs)
        return out


def _check_golden(ops: Ops, key: str, config) -> None:
    golden = golden_pairs(key)
    ops.check(
        golden is not None and config_pairs(config) == golden,
        f"cold config differs from golden {key}",
    )


def _slots(world) -> int:
    return len(world.user_groups) * len(world.deployment.peerings)
