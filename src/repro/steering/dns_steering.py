"""PAINTER with DNS-based client assignment (Fig. 9b).

"Using DNS, PAINTER maps each recursive resolver to the prefix with the best
overall benefit for traffic directed by that resolver. The prefix may be
optimal for some of the resolver's clients but not others."  ECS-capable
resolvers (Google Public DNS in practice) can map per client /24, i.e. per
UG here.  Comparing this against PAINTER's per-flow Traffic Manager isolates
the value of fine-grained steering: the paper finds DNS sacrifices roughly
half the benefit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core.advertisement import AdvertisementConfig
from repro.core.benefit import tm_choice
from repro.dns.resolvers import ResolverAssignment
from repro.scenario import Scenario
from repro.usergroups.usergroup import UserGroup
from repro.util import sequential_sum


@dataclass(frozen=True)
class DnsSteeringResult:
    """Benefit of one configuration under per-flow vs DNS steering."""

    painter_benefit: float
    dns_benefit: float
    #: resolver_id -> chosen prefix (non-ECS resolvers only).
    resolver_choices: Mapping[int, Optional[int]]

    @property
    def dns_fraction_of_painter(self) -> float:
        if self.painter_benefit <= 0:
            return 1.0
        return self.dns_benefit / self.painter_benefit


def evaluate_dns_steering(
    scenario: Scenario,
    config: AdvertisementConfig,
    resolvers: ResolverAssignment,
) -> DnsSteeringResult:
    """Compare per-flow steering against resolver-granular DNS steering.

    Improvements come from the ground-truth oracle: each UG's traffic
    actually lands on one ingress per prefix, exposing the cost of handing
    diverse UGs the same answer.
    """
    ugs = scenario.user_groups
    latencies = scenario.routing.latencies(
        ugs, [config.peerings_for(prefix) for prefix in config.prefixes]
    )
    row_of = {ug.ug_id: row for ug, row in zip(ugs, latencies.tolist())}
    column = {prefix: j for j, prefix in enumerate(config.prefixes)}
    _, improvement = tm_choice([scenario.anycast_latency_ms(ug) for ug in ugs], latencies)
    best_of = {ug.ug_id: gain for ug, gain in zip(ugs, improvement.tolist())}

    def per_ug_pinned(ug: UserGroup, prefix: int) -> float:
        """Improvement when the UG is pinned to ``prefix``.

        Unlike the Traffic Manager, a DNS-directed client cannot fall back
        to anycast per flow — it connects to whatever address the resolver
        handed out — so the improvement may be *negative* for clients the
        shared answer doesn't suit (no route scores zero).  This asymmetry
        is exactly what Fig. 9b measures.
        """
        latency = row_of[ug.ug_id][column[prefix]]
        if latency == math.inf:
            return 0.0
        return scenario.anycast_latency_ms(ug) - latency

    painter_benefit = 0.0
    dns_benefit = 0.0
    resolver_choices: Dict[int, Optional[int]] = {}

    # PAINTER: each UG independently uses its best prefix (or anycast).
    for ug in scenario.user_groups:
        painter_benefit += ug.volume * best_of[ug.ug_id]

    # DNS: one prefix per (non-ECS) resolver, the best aggregate choice.
    for resolver in resolvers.resolvers:
        ugs = resolvers.ugs_of(resolver)
        if not ugs:
            continue
        if resolver.supports_ecs:
            # ECS steers per client subnet: equivalent to per-UG choice.
            for ug in ugs:
                dns_benefit += ug.volume * best_of[ug.ug_id]
            continue
        best_prefix: Optional[int] = None
        best_total = 0.0  # anycast-for-everyone scores zero
        for prefix in config.prefixes:
            total = sequential_sum(ug.volume * per_ug_pinned(ug, prefix) for ug in ugs)
            if total > best_total:
                best_total = total
                best_prefix = prefix
        resolver_choices[resolver.resolver_id] = best_prefix
        dns_benefit += best_total

    return DnsSteeringResult(
        painter_benefit=painter_benefit,
        dns_benefit=dns_benefit,
        resolver_choices=resolver_choices,
    )
