"""Assigning user groups to recursive resolvers.

Fig. 9's DNS analyses need a resolver population: most UGs use a nearby ISP
resolver, a minority use a public ECS-capable resolver, and — critically for
Fig. 9b — some resolvers serve *geographically disparate* UGs, so no single
DNS answer suits all their clients.  The paper found such resolvers
correlated with the poorly-routed regions where PAINTER's benefit
concentrates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dns.records import RecursiveResolver
from repro.scenario import Scenario
from repro.topology.geo import haversine_km
from repro.usergroups.usergroup import UserGroup


@dataclass(frozen=True)
class ResolverConfig:
    seed: int = 0
    #: Fraction of UGs whose clients use the public (ECS) resolver.
    public_resolver_fraction: float = 0.25
    #: Metro-cluster radius for local resolvers.
    local_radius_km: float = 1200.0
    #: Probability a UG is (mis)assigned to a resolver far from it.
    disparate_assignment_prob: float = 0.30
    #: Correlate disparate assignments with poorly-routed (high-improvement)
    #: UGs, per the paper's observation that "regions with poor routing ...
    #: correlated with regions that hosted LDNS serving geographically
    #: disparate users".
    benefit_correlated: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.public_resolver_fraction <= 1.0:
            raise ValueError("public_resolver_fraction must be in [0,1]")
        if not 0.0 <= self.disparate_assignment_prob <= 1.0:
            raise ValueError("disparate_assignment_prob must be in [0,1]")


class ResolverAssignment:
    """UG -> recursive resolver mapping for a scenario."""

    def __init__(self, scenario: Scenario, config: Optional[ResolverConfig] = None) -> None:
        self._config = config or ResolverConfig()
        self._scenario = scenario
        self._resolvers: List[RecursiveResolver] = []
        self._by_ug: Dict[int, RecursiveResolver] = {}
        self._build()

    def _build(self) -> None:
        cfg = self._config
        rng = random.Random(cfg.seed)
        ugs = self._scenario.user_groups

        public = RecursiveResolver(resolver_id=0, name="public-ecs", supports_ecs=True)
        self._resolvers.append(public)

        # Greedy metro clustering for local resolvers.
        clusters: List[List[UserGroup]] = []
        centers: List[UserGroup] = []
        for ug in ugs:
            placed = False
            for center, cluster in zip(centers, clusters):
                if haversine_km(ug.location, center.location) <= cfg.local_radius_km:
                    cluster.append(ug)
                    placed = True
                    break
            if not placed:
                centers.append(ug)
                clusters.append([ug])

        local_resolvers: List[RecursiveResolver] = []
        for index, center in enumerate(centers):
            local_resolvers.append(
                RecursiveResolver(
                    resolver_id=index + 1,
                    name=f"ldns-{center.metro.name}",
                )
            )
        self._resolvers.extend(local_resolvers)

        # Per-UG disparate-assignment probability, optionally amplified for
        # UGs with large potential improvement (poorly-routed regions).
        disparate_prob: Dict[int, float] = {}
        if cfg.benefit_correlated and ugs:
            improvements = {
                ug.ug_id: self._scenario.anycast_latency_ms(ug)
                - self._scenario.best_possible_latency_ms(ug)
                for ug in ugs
            }
            ranked = sorted(ugs, key=lambda ug: improvements[ug.ug_id])
            for rank, ug in enumerate(ranked):
                # Bottom third: 0.3x; middle: 1x; top third: 2.5x (capped).
                tercile = 3 * rank // max(1, len(ranked))
                factor = (0.3, 1.0, 2.5)[min(tercile, 2)]
                disparate_prob[ug.ug_id] = min(0.95, cfg.disparate_assignment_prob * factor)
        else:
            disparate_prob = {ug.ug_id: cfg.disparate_assignment_prob for ug in ugs}

        for center_idx, cluster in enumerate(clusters):
            for ug in cluster:
                if rng.random() < cfg.public_resolver_fraction:
                    resolver = public
                elif rng.random() < disparate_prob[ug.ug_id] and len(local_resolvers) > 1:
                    # A geographically disparate LDNS assignment.
                    other = rng.randrange(len(local_resolvers))
                    while other == center_idx and len(local_resolvers) > 1:
                        other = rng.randrange(len(local_resolvers))
                    resolver = local_resolvers[other]
                else:
                    resolver = local_resolvers[center_idx]
                resolver.ug_ids.append(ug.ug_id)
                self._by_ug[ug.ug_id] = resolver

    @property
    def resolvers(self) -> List[RecursiveResolver]:
        return list(self._resolvers)

    def resolver_for(self, ug: UserGroup) -> RecursiveResolver:
        try:
            return self._by_ug[ug.ug_id]
        except KeyError:
            raise KeyError(f"UG {ug.ug_id} has no resolver") from None

    def ugs_of(self, resolver: RecursiveResolver) -> List[UserGroup]:
        by_id = {ug.ug_id: ug for ug in self._scenario.user_groups}
        return [by_id[ug_id] for ug_id in resolver.ug_ids]
