"""TrafficReplay: Zipf-weighted UG flow arrivals through an advertisement.

The tentpole load test for the batched Traffic Manager data plane.  One
replay run:

1. solves an advertisement configuration (Algorithm 1) for a preset world;
2. installs it — real /24s, TM-PoPs, prefix directory;
3. gives every user group its own hysteretic selector
   (:class:`~repro.traffic_manager.selection.SelectorBank`) fed from the
   ground-truth latency of each installed prefix as that UG would route to
   it;
4. streams flow-arrival batches through a :class:`VectorFlowTable` — each flow
   belongs to a UG drawn with probability proportional to the UG's traffic
   volume (the generator's Zipf-weighted volumes), so heavy UGs dominate the
   flow mix exactly as in the paper's traffic model;
5. optionally kills the hottest destination prefix mid-run and re-maps its
   flows in one batched failover call.

The per-step flows/s throughput this measures is what the ``tm-bench`` CLI
subcommand reports; the slow tier's 1M-flow gate
(``tests/test_azure_gates.py``) drives it at azure scale.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.installation import install_configuration
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.experiments.harness import ExperimentResult
from repro.scenario import PRESETS
from repro.telemetry import METRICS, TRACER, emit_event
from repro.traffic_manager.dataplane import FlowBatch, VectorFlowTable
from repro.traffic_manager.selection import SelectorBank


@dataclass(frozen=True)
class ReplayConfig:
    """Parameters of one traffic replay run."""

    preset: str = "tiny"
    seed: int = 0
    #: Flows arriving per step (each step is one measurement round).
    arrivals_per_step: int = 100_000
    steps: int = 5
    prefix_budget: int = 4
    #: Step index (0-based) at which the hottest prefix dies; None = no fault.
    fail_step: Optional[int] = None

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; have {sorted(PRESETS)}")
        if self.arrivals_per_step < 1:
            raise ValueError("arrivals_per_step must be positive")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.fail_step is not None and not 0 <= self.fail_step < self.steps:
            raise ValueError("fail_step must fall inside the run")


@dataclass
class StepStats:
    """One replay step's outcome."""

    step: int
    admitted: int
    unroutable: int
    live_flows: int
    elapsed_s: float

    @property
    def flows_per_s(self) -> float:
        if self.elapsed_s <= 0:
            return math.inf
        return self.admitted / self.elapsed_s


@dataclass
class ReplayResult:
    """Everything a throughput gate or report needs from one run."""

    config: ReplayConfig
    step_stats: List[StepStats] = field(default_factory=list)
    bytes_by_destination: Dict[str, float] = field(default_factory=dict)
    flows_by_destination: Dict[str, int] = field(default_factory=dict)
    flows_remapped: int = 0
    failed_prefix: Optional[str] = None
    #: UG-volume share steered to each installed prefix (selection census).
    selection_share: Dict[str, float] = field(default_factory=dict)

    @property
    def total_admitted(self) -> int:
        return sum(s.admitted for s in self.step_stats)

    @property
    def peak_live_flows(self) -> int:
        return max((s.live_flows for s in self.step_stats), default=0)

    @property
    def min_flows_per_s(self) -> float:
        return min((s.flows_per_s for s in self.step_stats), default=0.0)

    def to_result(self) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="replay",
            title="TrafficReplay: batched data-plane steering under UG arrivals",
            columns=("step", "admitted", "unroutable", "live_flows", "kflows_per_s"),
        )
        for stats in self.step_stats:
            result.add_row(
                stats.step,
                stats.admitted,
                stats.unroutable,
                stats.live_flows,
                stats.flows_per_s / 1e3,
            )
        result.add_note(
            f"preset={self.config.preset} "
            f"peak_live={self.peak_live_flows} remapped={self.flows_remapped}"
        )
        if self.failed_prefix is not None:
            result.add_note(f"failed prefix {self.failed_prefix} at step {self.config.fail_step}")
        return result


def run_traffic_replay(config: Optional[ReplayConfig] = None) -> ReplayResult:
    """Run one replay; see the module docstring for the shape of a run."""
    config = config or ReplayConfig()
    with TRACER.span(
        "replay.run", preset=config.preset,
        steps=config.steps, arrivals_per_step=config.arrivals_per_step,
    ):
        return _replay(config)


def _replay(config: ReplayConfig) -> ReplayResult:
    scenario = PRESETS[config.preset](seed=config.seed)

    with METRICS.timed("replay.solve"):
        orchestrator = PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=config.prefix_budget)
        )
        advertisement = orchestrator.solve()
    installation = install_configuration(scenario, advertisement)

    with METRICS.timed("replay.measure"):
        cidrs = [installed.cidr for installed in installation.prefixes]
        latencies = scenario.routing.latencies(
            scenario.user_groups,
            [installed.peering_ids for installed in installation.prefixes],
        )
        bank = SelectorBank()
        # One measurement round per selector warm-up requirement, so the
        # hysteretic selectors settle on their steady-state choice.
        selections = bank.update_matrix(cidrs, latencies)

    volumes = [ug.volume for ug in scenario.user_groups]
    plane = VectorFlowTable()
    result = ReplayResult(config=config)

    for step in range(config.steps):
        if config.fail_step is not None and step == config.fail_step:
            # Kill the destination carrying the most flows; survivors take
            # over at the next measurement round, pinned flows are re-mapped
            # in one batched failover call per abandoned prefix.
            dests = plane.destinations()
            if dests:
                dead = max(sorted(dests), key=lambda p: dests[p])
                result.failed_prefix = dead
                dead_col = cidrs.index(dead)
                latencies[:, dead_col] = math.inf
                before = dict(selections)
                selections = bank.update_matrix(cidrs, latencies)
                with METRICS.timed("replay.failover"):
                    for to_prefix in sorted(
                        {
                            selections[sid]
                            for sid, prev in before.items()
                            if prev == dead and selections[sid] is not None
                        }
                    ):
                        result.flows_remapped += plane.remap(dead, to_prefix)
                emit_event(
                    "prefix_failure",
                    step=step,
                    dead_prefix=dead,
                    flows_remapped=result.flows_remapped,
                )
        batch = FlowBatch.synthesize(
            config.arrivals_per_step,
            seed=config.seed * 7919 + step,
            n_services=len(volumes),
            service_weights=volumes,
        )
        start = time.perf_counter()
        with TRACER.span("replay.step", step=step, arrivals=len(batch)):
            with METRICS.timed("replay.step"):
                forwarded = plane.forward(batch, selections, float(step))
        elapsed = time.perf_counter() - start
        METRICS.counter("replay.flows_admitted").add(forwarded.admitted)
        stats = StepStats(
            step=step,
            admitted=forwarded.admitted,
            unroutable=forwarded.unroutable,
            live_flows=plane.flow_count(),
            elapsed_s=elapsed,
        )
        if math.isfinite(stats.flows_per_s):
            METRICS.histogram("replay.flows_per_s").observe(stats.flows_per_s)
        METRICS.gauge("replay.live_flows").set(stats.live_flows)
        result.step_stats.append(stats)

    result.flows_by_destination = plane.destinations()
    result.bytes_by_destination = plane.bytes_by_destination()
    installation.directory.relay_batch(
        result.flows_by_destination, result.bytes_by_destination
    )
    total_volume = sum(volumes) or 1.0
    for sid, prefix in bank.selections().items():
        if prefix is not None:
            result.selection_share[prefix] = (
                result.selection_share.get(prefix, 0.0)
                + scenario.user_groups[sid].volume / total_volume
            )
    return result


def run_replay() -> ExperimentResult:
    """Registry entry point: a modest replay that exercises every stage."""
    replay = run_traffic_replay(
        ReplayConfig(
            preset="tiny",
            arrivals_per_step=50_000,
            steps=3,
            prefix_budget=3,
            fail_step=2,
        )
    )
    return replay.to_result()
