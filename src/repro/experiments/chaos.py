"""Chaos harness: seeded random fault storms against every steering strategy.

The Fig. 10 experiment asks "how fast does each steering mechanism recover
from one clean failure?".  The chaos harness asks the operational question
behind it: *under a storm of compounding faults — overlapping outages,
flapping links, latency spikes, probe loss — how much downtime and latency
inflation does each strategy actually accumulate, and does it recover at
all?*  Each storm is a seeded :func:`repro.faults.FaultSchedule.random_storm`
run through the TM-Edge failover simulation; anycast and DNS figures are
derived from the same schedule's ground truth, so the three strategies face
identical weather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.harness import ExperimentResult
from repro.faults.events import LinkFlap
from repro.faults.injector import damping_state
from repro.faults.schedule import FaultSchedule
from repro.telemetry import TRACER, emit_event
from repro.traffic_manager.failover import (
    DNS_TTL_S,
    FailoverConfig,
    FailoverResult,
    PathSpec,
    default_fig10_paths,
    run_failover,
)


@dataclass(frozen=True)
class ChaosConfig:
    storms: int = 5
    duration_s: float = 130.0
    seed: int = 0
    #: Scales the expected number of fault events per storm.
    intensity: float = 1.0

    def __post_init__(self) -> None:
        if self.storms < 1:
            raise ValueError("need at least one storm")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")


@dataclass(frozen=True)
class StormOutcome:
    """Downtime / inflation / recovery metrics for one storm."""

    storm: int
    schedule: FaultSchedule
    result: FailoverResult
    painter_downtime_ms: float
    painter_inflation_ms: float
    painter_recoveries: int
    anycast_downtime_s: float
    dns_downtime_s: float


class ChaosHarness:
    """Runs seeded fault storms and scores each steering strategy."""

    def __init__(
        self,
        config: Optional[ChaosConfig] = None,
        paths: Optional[Sequence[PathSpec]] = None,
    ) -> None:
        self._config = config or ChaosConfig()
        self._paths = list(paths) if paths is not None else default_fig10_paths()

    @property
    def config(self) -> ChaosConfig:
        return self._config

    def make_storm(self, storm: int) -> FaultSchedule:
        cfg = self._config
        pop_names = sorted({p.pop_name for p in self._paths})
        unicast_prefixes = [p.prefix for p in self._paths if not p.is_anycast]
        return FaultSchedule.random_storm(
            pop_names=pop_names,
            duration_s=cfg.duration_s * 0.85,
            seed=cfg.seed + storm,
            intensity=cfg.intensity,
            prefixes=unicast_prefixes,
        )

    def run_storm(self, storm: int) -> StormOutcome:
        cfg = self._config
        with TRACER.span("chaos.storm", storm=storm, seed=cfg.seed + storm) as span:
            schedule = self.make_storm(storm)
            span.tag("faults", len(schedule))
            emit_event(
                "fault_storm",
                storm=storm,
                seed=cfg.seed + storm,
                faults=len(schedule),
                duration_s=cfg.duration_s,
                intensity=cfg.intensity,
            )
            result = run_failover(
                self._paths,
                FailoverConfig(
                    duration_s=cfg.duration_s,
                    seed=cfg.seed + storm,
                    schedule=schedule,
                ),
            )
            outcome = StormOutcome(
                storm=storm,
                schedule=schedule,
                result=result,
                painter_downtime_ms=result.total_downtime_ms,
                painter_inflation_ms=self._painter_inflation_ms(result),
                painter_recoveries=result.recovery_count,
                anycast_downtime_s=self._anycast_downtime_s(result),
                dns_downtime_s=self._dns_downtime_s(schedule),
            )
            span.tag("recoveries", outcome.painter_recoveries)
            emit_event(
                "storm_outcome",
                storm=storm,
                painter_downtime_ms=outcome.painter_downtime_ms,
                painter_recoveries=outcome.painter_recoveries,
                anycast_downtime_s=outcome.anycast_downtime_s,
                dns_downtime_s=outcome.dns_downtime_s,
            )
            return outcome

    def run(self) -> List[StormOutcome]:
        return [self.run_storm(storm) for storm in range(self._config.storms)]

    # -- per-strategy metrics ------------------------------------------------

    def _painter_inflation_ms(self, result: FailoverResult) -> float:
        """Mean delivered-RTT excess over the best pre-storm path."""
        baseline = min(p.base_rtt_ms for p in self._paths)
        delivered = [
            rtt for _t, _prefix, rtt in result.timeline if not math.isinf(rtt)
        ]
        if not delivered:
            return math.inf
        return sum(rtt - baseline for rtt in delivered) / len(delivered)

    def _anycast_downtime_s(self, result: FailoverResult) -> float:
        """Summed unreachability of the anycast prefix across all epochs."""
        total = 0.0
        for epochs in result.anycast_epochs.values():
            for epoch in epochs:
                loss = epoch.trace.loss_duration_s
                window = epoch.end_s - epoch.start_s
                total += min(loss, window) if not math.isinf(loss) else window
        return total

    def _dns_downtime_s(self, schedule: FaultSchedule) -> float:
        """TTL-bound downtime of DNS clients pinned to the best path's PoP."""
        cfg = self._config
        best = min(self._paths, key=lambda p: p.base_rtt_ms)
        total = 0.0
        for start_s, end_s in schedule.down_intervals(
            pop_name=best.pop_name, prefix=best.prefix, horizon_s=cfg.duration_s
        ):
            total += min(end_s - start_s, DNS_TTL_S)
        return total

    # -- presentation --------------------------------------------------------

    def to_result(self, outcomes: Optional[List[StormOutcome]] = None) -> ExperimentResult:
        cfg = self._config
        outcomes = outcomes if outcomes is not None else self.run()
        result = ExperimentResult(
            experiment_id="chaos",
            title="Fault storms: downtime / inflation / recovery per strategy",
            columns=[
                "storm",
                "faults",
                "painter_downtime_ms",
                "painter_inflation_ms",
                "painter_recoveries",
                "anycast_downtime_s",
                "dns_downtime_s",
            ],
        )
        for outcome in outcomes:
            result.add_row(
                outcome.storm,
                len(outcome.schedule),
                outcome.painter_downtime_ms,
                outcome.painter_inflation_ms,
                outcome.painter_recoveries,
                outcome.anycast_downtime_s,
                outcome.dns_downtime_s,
            )

        def mean(values: List[float]) -> float:
            finite = [v for v in values if not math.isinf(v)]
            return sum(finite) / len(finite) if finite else math.inf

        result.add_note(
            f"{cfg.storms} seeded storms (seed={cfg.seed}, "
            f"intensity={cfg.intensity:g}) over {cfg.duration_s:g}s each"
        )
        result.add_note(
            "mean downtime — painter: "
            f"{mean([o.painter_downtime_ms for o in outcomes]) / 1000.0:.3f}s, "
            f"anycast: {mean([o.anycast_downtime_s for o in outcomes]):.3f}s, "
            f"dns: {mean([o.dns_downtime_s for o in outcomes]):.3f}s"
        )
        damped = sum(
            1
            for o in outcomes
            for (prefix, peer), _ in _suppressed_pairs(o.schedule, cfg.duration_s)
        )
        result.add_note(
            f"link flaps left {damped} (prefix, peer) pairs route-flap-damped"
        )
        return result


def _suppressed_pairs(
    schedule: FaultSchedule, at_s: float
) -> List[Tuple[Tuple[str, int], float]]:
    """(prefix, peer) pairs a storm's flaps pushed into RFC 2439 suppression."""
    damping = damping_state(schedule, until_s=at_s)
    suppressed: List[Tuple[Tuple[str, int], float]] = []
    for flap in schedule.events_of(LinkFlap):
        prefix = flap.prefix or f"pop:{flap.pop_name}"
        if damping.is_suppressed(prefix, flap.peer_asn, at_s):
            suppressed.append(
                ((prefix, flap.peer_asn), damping.penalty(prefix, flap.peer_asn, at_s))
            )
    return suppressed


def run_chaos(
    storms: int = 5,
    duration_s: float = 130.0,
    seed: int = 0,
    intensity: float = 1.0,
) -> ExperimentResult:
    """Entry point used by the CLI, the report generator, and tests."""
    harness = ChaosHarness(
        ChaosConfig(storms=storms, duration_s=duration_s, seed=seed, intensity=intensity)
    )
    return harness.to_result()
