"""Measurement campaigns: scheduled, rate-limited probing with retries.

The Advertisement Orchestrator "takes measurements from TM-Edges" (§4); in
practice that means a probing campaign: many (UG, ingress) targets, a probe
rate the edge boxes and targets can tolerate, several samples per target
(the paper pings each target 7 times), and a results store the optimizer
reads.  This module runs such a campaign over the discrete-event engine and
exposes the results in the ``latency_of`` shape Algorithm 1 consumes.

Real campaigns lose probes — filtered ICMP, dark PoPs, rate-limited
targets.  A campaign therefore has loss/timeout semantics: a probe that is
dropped (by the pinger's own loss model, by a :class:`repro.faults`
schedule's :class:`~repro.faults.ProbeLoss` window, or because the target's
PoP is dark) is retried with exponential backoff up to a bounded number of
attempts, and the per-target attempt counts are part of the result so the
orchestrator can tell "measured cleanly" from "limped through".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.faults.schedule import FaultSchedule
from repro.measurement.ping import DEFAULT_PING_COUNT, Pinger
from repro.simulation.events import EventLoop
from repro.telemetry import TRACER, emit_event
from repro.topology.cloud import Peering
from repro.usergroups.usergroup import UserGroup


@dataclass(frozen=True)
class CampaignConfig:
    #: Probes per second across the whole campaign (rate limit).
    probes_per_second: float = 50.0
    #: Samples per target (paper: ping 7 times, take the min).
    samples_per_target: int = DEFAULT_PING_COUNT
    #: Extra attempts per lost probe before giving the sample up.
    max_retries: int = 2
    #: First retry delay; doubles per subsequent attempt (exponential backoff).
    retry_backoff_s: float = 0.25

    def __post_init__(self) -> None:
        if self.probes_per_second <= 0:
            raise ValueError("probe rate must be positive")
        if self.samples_per_target < 1:
            raise ValueError("need at least one sample per target")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff_s <= 0:
            raise ValueError("retry_backoff_s must be positive")


@dataclass
class CampaignResult:
    """Collected minima plus campaign accounting."""

    latencies_ms: Dict[Tuple[int, int], float] = field(default_factory=dict)
    probes_sent: int = 0
    probes_lost: int = 0
    retries: int = 0
    targets_measured: int = 0
    targets_unreachable: int = 0
    duration_s: float = 0.0
    #: Per-target probe attempts (retries included); 1 per sample when clean.
    attempts: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: Targets whose recorded value came from a previous measurement epoch.
    stale_targets: Set[Tuple[int, int]] = field(default_factory=set)

    def latency_of(self, ug: UserGroup, peering_id: int) -> Optional[float]:
        """Adapter with the orchestrator's ``latency_of`` signature."""
        return self.latencies_ms.get((ug.ug_id, peering_id))

    def attempts_for(self, ug: UserGroup, peering_id: int) -> int:
        return self.attempts.get((ug.ug_id, peering_id), 0)

    @property
    def loss_rate(self) -> float:
        """Observed fraction of probes that went unanswered."""
        if self.probes_sent == 0:
            return 0.0
        return self.probes_lost / self.probes_sent


class MeasurementCampaign:
    """Probes a target list at a bounded rate over simulated time."""

    def __init__(
        self,
        pinger: Pinger,
        config: Optional[CampaignConfig] = None,
    ) -> None:
        self._pinger = pinger
        self._config = config or CampaignConfig()

    def run(
        self,
        targets: Sequence[Tuple[UserGroup, Peering]],
        day: int = 0,
        faults: Optional[FaultSchedule] = None,
        seed: int = 0,
    ) -> CampaignResult:
        """Measure every (UG, peering) target; returns the result store.

        Probes are spaced to honor the rate limit; each target gets
        ``samples_per_target`` probes whose minimum is recorded.  A probe
        lost to the pinger's loss model, to a ``faults`` probe-loss window,
        or to a dark PoP is retried after an exponentially-backed-off delay
        until ``max_retries`` is exhausted.  Probes falling into a
        ``StaleMeasurement`` window return the *previous* day's value and
        mark the target stale.
        """
        with TRACER.span(
            "campaign.run", targets=len(targets), day=day,
            faulted=faults is not None,
        ) as run_span:
            result = self._probe_all(targets, day, faults, seed)
            run_span.tag("probes_sent", result.probes_sent)
            run_span.tag("probes_lost", result.probes_lost)
            run_span.tag("retries", result.retries)
        emit_event(
            "campaign",
            day=day,
            targets=len(targets),
            probes_sent=result.probes_sent,
            probes_lost=result.probes_lost,
            retries=result.retries,
            measured=result.targets_measured,
            unreachable=result.targets_unreachable,
            stale=len(result.stale_targets),
        )
        return result

    def _probe_all(
        self,
        targets: Sequence[Tuple[UserGroup, Peering]],
        day: int,
        faults: Optional[FaultSchedule],
        seed: int,
    ) -> CampaignResult:
        config = self._config
        result = CampaignResult()
        loop = EventLoop()
        interval_s = 1.0 / config.probes_per_second
        rng = random.Random(seed)

        samples: Dict[Tuple[int, int], List[float]] = {}
        probe_index = 0

        def fire_probe(
            loop: EventLoop,
            ug: UserGroup,
            peering: Peering,
            key: Tuple[int, int],
            attempt: int,
        ) -> None:
            now = loop.now_s
            result.probes_sent += 1
            result.attempts[key] = result.attempts.get(key, 0) + 1

            lost = False
            if faults is not None:
                if faults.pop_down(peering.pop.name, now):
                    lost = True  # the whole PoP is dark: nothing answers
                elif faults.probe_loss_rate(now) > 0 and rng.random() < faults.probe_loss_rate(now):
                    lost = True
            rtt: Optional[float] = None
            stale = False
            if not lost:
                probe_day = day
                if faults is not None and faults.stale_fraction(now) > 0:
                    if rng.random() < faults.stale_fraction(now):
                        probe_day = max(0, day - 1)
                        stale = probe_day != day
                rtt = self._pinger.min_latency_ms(ug, peering, count=1, day=probe_day)
                lost = rtt is None

            if lost:
                result.probes_lost += 1
                if attempt <= config.max_retries:
                    result.retries += 1
                    backoff_s = config.retry_backoff_s * (2 ** (attempt - 1))
                    loop.schedule_in(
                        backoff_s,
                        lambda loop, ug=ug, peering=peering, key=key, attempt=attempt + 1: fire_probe(
                            loop, ug, peering, key, attempt
                        ),
                    )
                return
            assert rtt is not None
            samples[key].append(rtt)
            if stale:
                result.stale_targets.add(key)

        for ug, peering in targets:
            key = (ug.ug_id, peering.peering_id)
            samples.setdefault(key, [])
            for _ in range(config.samples_per_target):
                when = probe_index * interval_s
                probe_index += 1
                loop.schedule_at(
                    when,
                    lambda loop, ug=ug, peering=peering, key=key: fire_probe(
                        loop, ug, peering, key, attempt=1
                    ),
                )
        loop.run_all()
        result.duration_s = loop.now_s if probe_index else 0.0

        for key, values in samples.items():
            if values:
                result.latencies_ms[key] = min(values)
                result.targets_measured += 1
            else:
                result.targets_unreachable += 1
                result.stale_targets.discard(key)
        return result


def campaign_targets(
    scenario, max_targets_per_ug: Optional[int] = None
) -> List[Tuple[UserGroup, Peering]]:
    """Every policy-compliant (UG, peering) pair, optionally capped per UG."""
    targets: List[Tuple[UserGroup, Peering]] = []
    for ug in scenario.user_groups:
        peerings = scenario.catalog.ingresses(ug)
        if max_targets_per_ug is not None:
            peerings = peerings[:max_targets_per_ug]
        targets.extend((ug, peering) for peering in peerings)
    return targets
