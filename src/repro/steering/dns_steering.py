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
from repro.core.benefit import BenefitEvaluator, tm_choice
from repro.dns.resolvers import ResolverAssignment
from repro.scenario import Scenario
from repro.usergroups.usergroup import UserGroup


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


def _ug_improvement_for_prefix(
    evaluator: BenefitEvaluator,
    ug: UserGroup,
    config: AdvertisementConfig,
    prefix: Optional[int],
) -> float:
    """Improvement when the UG is pinned to one prefix (None = anycast).

    Unlike the Traffic Manager, a DNS-directed client cannot fall back to
    anycast per flow — it connects to whatever address the resolver handed
    out — so the improvement may be *negative* for clients the shared answer
    doesn't suit.  This asymmetry is exactly what Fig. 9b measures.
    """
    if prefix is None:
        return 0.0
    anycast = evaluator.scenario.anycast_latency_ms(ug)
    latency = evaluator.expected_prefix_latency(ug, config.peerings_for(prefix))
    if latency is None:
        return 0.0
    return anycast - latency


def evaluate_dns_steering(
    scenario: Scenario,
    config: AdvertisementConfig,
    resolvers: ResolverAssignment,
    evaluator: Optional[BenefitEvaluator] = None,
    realized: bool = True,
) -> DnsSteeringResult:
    """Compare per-flow steering against resolver-granular DNS steering.

    With ``realized`` (default) improvements come from the ground-truth
    oracle — each UG's traffic actually lands on one ingress per prefix,
    exposing the cost of handing diverse UGs the same answer.  With
    ``realized=False`` the routing model's expectations (Eq. 2) are used
    instead, which requires ``evaluator``.
    """
    if not realized and evaluator is None:
        raise ValueError("model-based evaluation requires an evaluator")

    if realized:
        ugs = scenario.user_groups
        latencies = scenario.routing.latencies(
            ugs, [config.peerings_for(prefix) for prefix in config.prefixes]
        )
        row_of = {ug.ug_id: row for ug, row in zip(ugs, latencies.tolist())}
        column = {prefix: j for j, prefix in enumerate(config.prefixes)}
        _, improvement = tm_choice([scenario.anycast_latency_ms(ug) for ug in ugs], latencies)
        best_of = {ug.ug_id: gain for ug, gain in zip(ugs, improvement.tolist())}

    def per_ug_best(ug: UserGroup) -> float:
        if realized:
            return best_of[ug.ug_id]
        assert evaluator is not None
        return evaluator.expected_improvement(ug, config)

    def per_ug_pinned(ug: UserGroup, prefix: int) -> float:
        if realized:
            # Ground truth with no anycast floor; no route scores zero.
            latency = row_of[ug.ug_id][column[prefix]]
            if latency == math.inf:
                return 0.0
            return scenario.anycast_latency_ms(ug) - latency
        assert evaluator is not None
        return _ug_improvement_for_prefix(evaluator, ug, config, prefix)

    painter_benefit = 0.0
    dns_benefit = 0.0
    resolver_choices: Dict[int, Optional[int]] = {}

    # PAINTER: each UG independently uses its best prefix (or anycast).
    for ug in scenario.user_groups:
        painter_benefit += ug.volume * per_ug_best(ug)

    # DNS: one prefix per (non-ECS) resolver, the best aggregate choice.
    for resolver in resolvers.resolvers:
        ugs = resolvers.ugs_of(resolver)
        if not ugs:
            continue
        if resolver.supports_ecs:
            # ECS steers per client subnet: equivalent to per-UG choice.
            for ug in ugs:
                dns_benefit += ug.volume * per_ug_best(ug)
            continue
        best_prefix: Optional[int] = None
        best_total = 0.0  # anycast-for-everyone scores zero
        for prefix in config.prefixes:
            total = sum(ug.volume * per_ug_pinned(ug, prefix) for ug in ugs)
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
