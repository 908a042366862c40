"""Per-service SLO analysis: can the enterprise's paths meet its needs?

The paper's motivation (§1, §2.1) is quantitative: AR needs 10 ms at 20
Mbps, 5G promises URLLC, and ingress paths decide whether those budgets
survive the trip to the cloud.  This analysis evaluates, per enterprise site
and service, whether the SLO is met under (a) default anycast routing and
(b) PAINTER's advertisement configuration with per-flow steering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.advertisement import AdvertisementConfig
from repro.core.benefit import tm_choice
from repro.enterprise.model import Enterprise
from repro.scenario import Scenario


@dataclass(frozen=True)
class SloOutcome:
    """One (site, service) row of the analysis."""

    site_name: str
    service_name: str
    slo_ms: float
    anycast_latency_ms: float
    painter_latency_ms: float
    steerable: bool

    @property
    def met_under_anycast(self) -> bool:
        return self.anycast_latency_ms <= self.slo_ms

    @property
    def met_under_painter(self) -> bool:
        """PAINTER helps only where a TM-Edge controls the traffic (§3.3)."""
        effective = self.painter_latency_ms if self.steerable else self.anycast_latency_ms
        return effective <= self.slo_ms

    @property
    def improvement_ms(self) -> float:
        if not self.steerable:
            return 0.0
        return max(0.0, self.anycast_latency_ms - self.painter_latency_ms)


def analyze_slos(
    scenario: Scenario, enterprise: Enterprise, config: AdvertisementConfig
) -> List[SloOutcome]:
    """Evaluate every (site, service) pair of the enterprise."""
    outcomes: List[SloOutcome] = []
    ugs = [site.user_group for site in enterprise.sites]
    latencies = scenario.routing.latencies(
        ugs, [config.peerings_for(prefix) for prefix in config.prefixes]
    )
    fallbacks = [scenario.anycast_latency_ms(ug) for ug in ugs]
    choice, _ = tm_choice(fallbacks, latencies)
    rows = zip(latencies.tolist(), fallbacks, choice.tolist())
    for site, (row, anycast, j) in zip(enterprise.sites, rows):
        # The Traffic Manager's pick among anycast and every prefix.
        painter = anycast if j < 0 else row[j]
        for service in enterprise.services:
            outcomes.append(
                SloOutcome(
                    site_name=site.name,
                    service_name=service.name,
                    slo_ms=service.latency_slo_ms,
                    anycast_latency_ms=anycast,
                    painter_latency_ms=painter,
                    steerable=site.has_edge_stack,
                )
            )
    return outcomes


@dataclass(frozen=True)
class SloSummary:
    """Headcount-weighted SLO attainment for the whole enterprise."""

    anycast_met_fraction: float
    painter_met_fraction: float
    mean_improvement_ms: float


def summarize_slos(
    enterprise: Enterprise, outcomes: Sequence[SloOutcome]
) -> SloSummary:
    """Aggregate outcomes weighted by site headcount and service share."""
    if not outcomes:
        raise ValueError("no outcomes to summarize")
    headcount = {site.name: site.headcount for site in enterprise.sites}
    share = {svc.name: svc.traffic_share for svc in enterprise.services}
    total = 0.0
    anycast_met = 0.0
    painter_met = 0.0
    improvement = 0.0
    for outcome in outcomes:
        weight = headcount[outcome.site_name] * share[outcome.service_name]
        total += weight
        if outcome.met_under_anycast:
            anycast_met += weight
        if outcome.met_under_painter:
            painter_met += weight
        improvement += weight * outcome.improvement_ms
    return SloSummary(
        anycast_met_fraction=anycast_met / total,
        painter_met_fraction=painter_met / total,
        mean_improvement_ms=improvement / total,
    )
