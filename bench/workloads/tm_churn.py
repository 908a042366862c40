"""``tm-churn``: the Traffic-Manager data plane under admit / re-forward / end / remap."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.installation import install_configuration
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import prototype_scenario, tiny_scenario
from repro.soak.runner import SoakDriver
from repro.traffic_manager.dataplane import FlowBatch, VectorFlowTable
from repro.traffic_manager.selection import SelectorBank

from bench import WORLD_SEED
from bench.workloads import (
    Ops,
    Workload,
    config_pairs,
    golden_pairs,
    materialize_diagnostic,
)

ANYCAST = "anycast"
#: Cycles a batch stays live before its flows are ended.
LIFETIME_CYCLES = 6


@dataclass
class Cycle:
    """The batches one churn cycle admits."""

    bulk: FlowBatch
    trickle: List[FlowBatch]


@dataclass
class Deployment:
    world: Any
    orch: PainterOrchestrator
    config: Any = None
    installation: Any = None
    names: List[str] = field(default_factory=list)
    matrix: Optional[np.ndarray] = None
    #: Per-UG traffic volumes: the service mix of every synthesized batch.
    weights: List[float] = field(default_factory=list)
    bank: Optional[SelectorBank] = None
    selections: Dict[int, Optional[str]] = field(default_factory=dict)
    plane: Optional[VectorFlowTable] = None
    #: The last ``LIFETIME_CYCLES`` cycles, oldest first.
    live: List[Cycle] = field(default_factory=list)
    dead: Optional[str] = None


class TmChurn(Workload):
    name = "tm-churn"
    why = (
        "only the data plane runs: admits, re-forwards, ends and remaps side "
        "by side, bulk beside trickle batches (per-batch cost dominates the "
        "smallest messages)"
    )
    steps_full = 6
    steps_quick = 6

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        quick = self.quick
        self.budget = 4 if quick else 6
        self.golden_key = "tiny_seed0" if quick else "prototype_seed0"
        self._factory = tiny_scenario if quick else prototype_scenario
        self.bulk_flows = 3_000 if quick else 100_000
        self.trickle_batches = 3 if quick else 10
        self.trickle_flows = 200 if quick else 2_000
        self.remap_every = 3 if quick else 5
        self.totals = Counter()

    # -- set-up --------------------------------------------------------------

    def build(self) -> Deployment:
        with self.rec.span("scenario.build"):
            world = self._factory(WORLD_SEED)
        with self.rec.span("orchestrator.construct"):
            orch = PainterOrchestrator(
                world, OrchestratorConfig(prefix_budget=self.budget)
            )
        return Deployment(world, orch)

    def cold_solve(self, dep: Deployment):
        return dep.orch.solve_warm()

    def deploy(self, dep: Deployment, config) -> None:
        """Install the configuration and select one destination per UG."""
        rec = self.rec
        world = dep.world
        dep.config = config
        with rec.span("installation.install"):
            dep.installation = install_configuration(world, config)
        ugs = world.user_groups
        dep.weights = [ug.volume for ug in ugs]
        columns = []
        for prefix in config.prefixes:
            peerings = config.peerings_for(prefix)
            dep.names.append(SoakDriver.prefix_label(peerings))
            columns.append(
                [
                    latency if latency is not None else np.inf
                    for latency in (
                        world.routing.latency_for(ug, peerings) for ug in ugs
                    )
                ]
            )
        dep.names.append(ANYCAST)
        columns.append([world.anycast_latency_ms(ug) for ug in ugs])
        dep.matrix = np.array(columns, dtype=np.float64).T
        dep.bank = SelectorBank()
        with rec.span("selection.update"):
            dep.selections = dep.bank.update_matrix(dep.names, dep.matrix)
        dep.plane = VectorFlowTable()

    def _batch(self, dep: Deployment, flows: int, *key: int) -> FlowBatch:
        return FlowBatch.synthesize(
            flows,
            seed=int(np.random.SeedSequence((self.seed, *key)).generate_state(1)[0]),
            n_services=len(dep.weights),
            service_weights=dep.weights,
        )

    def _cycle(self, dep: Deployment, index: int) -> Cycle:
        """Cycle ``index``'s batches (negative indices are the pre-fill)."""
        tag = index + LIFETIME_CYCLES
        return Cycle(
            bulk=self._batch(dep, self.bulk_flows, tag, 0),
            trickle=[
                self._batch(dep, self.trickle_flows, tag, j + 1)
                for j in range(self.trickle_batches)
            ],
        )

    def warm_up(self, dep: Deployment, config) -> None:
        """Pre-fill the table with the cycles that 'ran' before the first."""
        for index in range(-LIFETIME_CYCLES, 0):
            with self.rec.span("bench.loadgen"):
                cycle = self._cycle(dep, index)
            for batch in [cycle.bulk] + cycle.trickle:
                result = dep.plane.forward(batch, dep.selections, now_s=float(index))
                self.totals["admitted"] += result.admitted
                self.totals["unroutable"] += result.unroutable
            dep.live.append(cycle)
        self.totals["live_peak"] = dep.plane.flow_count()

    # -- one churn cycle -----------------------------------------------------

    def next_item(self, dep: Deployment, index: int) -> Cycle:
        return self._cycle(dep, index)

    def step(self, dep: Deployment, cycle: Cycle) -> None:
        rec = self.rec
        plane = dep.plane
        totals = self.totals
        index = totals["cycles"]
        now_s = float(index)
        admitted = existing = unroutable = 0
        with rec.span("dataplane.bulk_admit"):
            results = [plane.forward(cycle.bulk, dep.selections, now_s)]
        with rec.span("dataplane.trickle_admit"):
            for batch in cycle.trickle:
                results.append(plane.forward(batch, dep.selections, now_s))
        with rec.span("dataplane.reforward"):
            results.append(plane.forward(dep.live[-1].bulk, dep.selections, now_s))
        for result in results:
            admitted += result.admitted
            existing += result.existing
            unroutable += result.unroutable
        totals["live_peak"] = max(totals["live_peak"], plane.flow_count())
        expired = dep.live.pop(0)
        ended = 0
        with rec.span("dataplane.end"):
            for batch in [expired.bulk] + expired.trickle:
                ended += plane.end(batch.keys)
        dep.live.append(cycle)
        if index % self.remap_every == self.remap_every - 1:
            self._fail_hottest(dep)
        totals["cycles"] += 1
        totals["admitted"] += admitted
        totals["existing"] += existing
        totals["unroutable"] += unroutable
        totals["ended"] += ended

    def _fail_hottest(self, dep: Deployment) -> None:
        """The hottest prefix dies (the previous casualty heals): update the
        selections, then move its flows to the most-selected live prefix."""
        rec = self.rec
        counts = dep.plane.destinations()
        candidates = [name for name in counts if name != ANYCAST]
        if not candidates:
            return  # every flow rides anycast: nothing to fail over
        hot = min(candidates, key=lambda name: (-counts[name], name))
        matrix = dep.matrix.copy()
        matrix[:, dep.names.index(hot)] = np.inf
        with rec.span("selection.update"):
            dep.selections = dep.bank.update_matrix(dep.names, matrix)
        votes = Counter(dep.selections.values())
        target = min(votes, key=lambda name: (-votes[name], name))
        with rec.span("dataplane.remap"):
            moved = dep.plane.remap(hot, target)
        dep.dead = hot
        self.totals["remaps"] += 1
        self.totals["remapped"] += moved

    # -- after the last step -------------------------------------------------

    def teardown(self, dep: Deployment) -> None:
        dep.orch.close()

    def final_config(self, dep: Deployment):
        return dep.config

    def work(self, dep: Deployment) -> Dict[str, Any]:
        keys = ("admitted", "existing", "ended", "remapped", "unroutable", "live_peak")
        out = {f"flows_{key}": int(self.totals[key]) for key in keys}
        out["live_flows"] = dep.plane.flow_count()
        return out

    def check(self, dep: Deployment, cold_config, ops: Ops) -> None:
        totals = self.totals
        golden = golden_pairs(self.golden_key)
        ops.check(
            golden is not None and config_pairs(cold_config) == golden,
            f"cold config differs from golden {self.golden_key}",
        )
        live = dep.plane.flow_count()
        ops.check(
            totals["admitted"] - totals["ended"] == live,
            f"admitted {totals['admitted']} - ended {totals['ended']} != live {live}",
        )
        ops.check(totals["remapped"] > 0, "remap moved no flow")
        stranded = dep.plane.destinations().get(dep.dead, 0)
        ops.check(stranded == 0, f"{stranded} flows left on dead prefix {dep.dead}")
        ops.check(
            totals["unroutable"] == 0, f"{totals['unroutable']} unroutable flows"
        )

    def diagnostics(
        self, dep: Deployment, cold_s: float, ops: Ops
    ) -> Dict[str, float]:
        rec = self.rec
        materialize_diagnostic(rec, self._factory(WORLD_SEED), self.budget)
        with rec.span("dataplane.snapshot"):
            packed = dep.plane.to_packed_snapshot()
        with rec.span("dataplane.restore"):
            VectorFlowTable.from_packed_snapshot(packed)
        cycles = self.totals["cycles"]
        per_cycle = self.trickle_batches * self.trickle_flows
        return {
            "dataplane.bulk_admit_flows": float(cycles * self.bulk_flows),
            "dataplane.trickle_admit_flows": float(cycles * per_cycle),
            "dataplane.reforward_flows": float(cycles * self.bulk_flows),
            "dataplane.remap_flows_moved": float(self.totals["remapped"]),
            "dataplane.live_flows_peak": float(self.totals["live_peak"]),
            "dataplane.unroutable": float(self.totals["unroutable"]),
        }
