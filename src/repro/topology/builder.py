"""Synthetic Internet topology generator.

Builds an AS graph plus a cloud deployment that structurally resembles the
ones PAINTER was evaluated on: a handful of tier-1s, a layer of transit
providers present at many PoPs, regional ISPs attached near their home metro,
and a long tail of stub (enterprise/eyeball) ASes — matching the paper's
observation that "some networks connect at multiple PoPs, most only at one".

All randomness flows through one seeded ``random.Random`` so scenarios are
fully reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.topology.asn import ASRole, AutonomousSystem, Relationship
from repro.topology.cloud import CloudDeployment
from repro.topology.geo import WORLD_METROS, Metro, haversine_km
from repro.topology.graph import ASGraph

CLOUD_ASN = 1

T = TypeVar("T")


@dataclass(frozen=True)
class TopologyConfig:
    """Knobs for the synthetic topology.

    Defaults produce a PEERING/Vultr-prototype-scale world (tens of PoPs,
    hundreds of neighbor ASes); the Azure-scale experiments pass larger
    values.
    """

    seed: int = 0
    n_pops: int = 25
    n_tier1: int = 5
    n_transit: int = 12
    n_regional: int = 60
    n_stub: int = 300
    #: Fraction of tier1/transit ASes the cloud buys transit from.
    transit_provider_fraction: float = 0.5
    #: Probability a regional ISP peers directly with the cloud at its
    #: nearest PoP.
    regional_peering_prob: float = 0.6
    #: Probability a stub AS has a direct peering with the cloud.
    stub_peering_prob: float = 0.03
    #: Mean number of providers per stub AS (multihoming degree).
    stub_multihoming_mean: float = 1.8
    #: Metro pool for PoP placement and AS home metros.  ``None`` means
    #: :data:`WORLD_METROS`; huge presets (``mega``) pass an extended pool so
    #: ``n_pops`` can exceed the curated world-metro count.
    metros: Optional[Tuple[Metro, ...]] = None
    #: Cap on how many PoPs one tier1/transit AS peers at.  ``None`` keeps
    #: the historical behaviour (presence up to ``n_pops``); large presets
    #: cap it so peering count grows linearly, not quadratically, with PoPs.
    #: Applied after the presence draw, so it never shifts the RNG stream.
    big_as_presence_cap: Optional[int] = None

    def __post_init__(self) -> None:
        pool = self.metro_pool()
        if self.n_pops < 2:
            raise ValueError("need at least 2 PoPs")
        if self.n_pops > len(pool):
            raise ValueError(f"at most {len(pool)} PoPs supported by the metro pool")
        if len({metro.name for metro in pool}) != len(pool):
            # The builder memoizes geometry by metro name; duplicates would
            # silently alias distinct locations.
            raise ValueError("metro pool contains duplicate metro names")
        if self.n_tier1 < 1 or self.n_transit < 1:
            raise ValueError("need at least one tier1 and one transit AS")
        if self.n_regional < 0 or self.n_stub < 0:
            raise ValueError("n_regional and n_stub must be non-negative")
        for name in ("transit_provider_fraction", "regional_peering_prob", "stub_peering_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:  # NaN fails every comparison too
                raise ValueError(f"{name} must be in [0,1], not {value!r}")
        if not (math.isfinite(self.stub_multihoming_mean) and self.stub_multihoming_mean > 0):
            raise ValueError(
                "stub_multihoming_mean must be a finite positive number, "
                f"not {self.stub_multihoming_mean!r}"
            )
        if self.big_as_presence_cap is not None and self.big_as_presence_cap < 2:
            raise ValueError("big_as_presence_cap must be >= 2")

    def metro_pool(self) -> Tuple[Metro, ...]:
        """The metro pool this topology draws from."""
        return self.metros if self.metros is not None else WORLD_METROS


@dataclass
class Topology:
    """The generated world: AS graph + cloud deployment + AS inventories."""

    config: TopologyConfig
    graph: ASGraph
    deployment: CloudDeployment
    tier1_asns: List[int]
    transit_asns: List[int]
    regional_asns: List[int]
    stub_asns: List[int]

    def edge_asns(self) -> List[int]:
        """ASes that host user groups (stubs plus regionals)."""
        return self.stub_asns + self.regional_asns


def _spread_metros(
    rng: random.Random, count: int, pool: Sequence[Metro] = WORLD_METROS
) -> List[Metro]:
    """Pick ``count`` metros maximizing geographic spread (greedy k-center).

    The first metro is a seeded draw; each further pick is the remaining
    metro farthest from its nearest chosen one (the first such metro in
    pool order on a tie).  Each remaining metro carries its distance to the
    nearest chosen metro, lowered after every pick by one distance to the
    new pick, so the scan is linear in the pool per pick.
    """
    metros = list(pool)
    if count == len(metros):
        # Whole pool requested: the greedy selection would return every metro
        # anyway, so skip it (and its rng.choice) — the mega preset uses all
        # 500 metros.
        return metros
    pick = rng.choice(metros)
    chosen = [pick]
    remaining = [m for m in metros if m is not pick]
    nearest = [haversine_km(m.location, pick.location) for m in remaining]
    while len(chosen) < count and remaining:
        i = max(range(len(remaining)), key=nearest.__getitem__)
        pick = remaining.pop(i)
        del nearest[i]
        chosen.append(pick)
        nearest = [
            min(d, haversine_km(m.location, pick.location))
            for m, d in zip(remaining, nearest)
        ]
    return chosen


def build_topology(config: Optional[TopologyConfig] = None) -> Topology:
    """Generate a reproducible synthetic topology from ``config``."""
    config = config or TopologyConfig()
    rng = random.Random(config.seed)
    pool = list(config.metro_pool())

    graph = ASGraph()
    deployment = CloudDeployment(name="synthetic-cloud")

    # Geometry memos, keyed by metro name (validated unique).  Every distance
    # the build compares is one haversine_km call per distinct metro pair
    # (haversine_km is symmetric bit for bit, so either order serves both),
    # and each scan below is memoized per home metro or walks only the ASes
    # it draws for: the work is linear in the metro pairs and the draws, not
    # quadratic in the AS count.  None of this touches the seeded RNG stream,
    # so it cannot perturb generated worlds.
    _pair_dist: Dict[Tuple[str, str], float] = {}

    def mdist(a: Metro, b: Metro) -> float:
        value = _pair_dist.get((a.name, b.name))
        if value is None:
            value = haversine_km(a.location, b.location)
            _pair_dist[(a.name, b.name)] = _pair_dist[(b.name, a.name)] = value
        return value

    def per_home_metro(compute: Callable[[Metro], T]) -> Callable[[Metro], T]:
        """``compute`` memoized by metro: ASes sharing a home metro share it."""
        memo: Dict[str, T] = {}

        def lookup(home: Metro) -> T:
            value = memo.get(home.name)
            if value is None:
                value = memo[home.name] = compute(home)
            return value

        return lookup

    cloud = AutonomousSystem(asn=CLOUD_ASN, role=ASRole.CLOUD, name="cloud")
    graph.add_as(cloud)

    next_asn = 100

    def make_as(role: ASRole, prefix: str, metro: Optional[Metro]) -> AutonomousSystem:
        nonlocal next_asn
        asys = AutonomousSystem(
            asn=next_asn, role=role, name=f"{prefix}{next_asn}", home_metro=metro
        )
        next_asn += 1
        graph.add_as(asys)
        return asys

    # -- PoPs ---------------------------------------------------------------
    pop_metros = _spread_metros(rng, config.n_pops, pool)
    pops = [deployment.add_pop(f"pop-{metro.name}", metro) for metro in pop_metros]

    # -- Tier-1 mesh ----------------------------------------------------------
    tier1 = [
        make_as(ASRole.TIER1, "t1-", rng.choice(pop_metros)) for _ in range(config.n_tier1)
    ]
    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            graph.add_peering_link(a.asn, b.asn)

    # -- Transit providers ----------------------------------------------------
    transits = [
        make_as(ASRole.TRANSIT, "tr-", rng.choice(pop_metros)) for _ in range(config.n_transit)
    ]
    for i, tr in enumerate(transits):
        for provider in rng.sample(tier1, k=min(len(tier1), rng.randint(1, 2))):
            graph.add_provider_customer(provider.asn, tr.asn)
        # Transit providers peer laterally with some probability (each pair
        # once, from the later AS; the list is in ASN order).
        for other in transits[:i]:
            if rng.random() < 0.25:
                if graph.relationship(tr.asn, other.asn) is None:
                    graph.add_peering_link(tr.asn, other.asn)

    # -- Regional ISPs ----------------------------------------------------------
    regionals = [
        make_as(ASRole.REGIONAL, "rg-", rng.choice(pool))
        for _ in range(config.n_regional)
    ]
    # Regionals grouped by home metro, each group in ASN order.  A metro's
    # row holds each group's distance to it: the nearby-regional scans below
    # read one distance per regional home metro, not one per regional.
    regionals_at: Dict[str, List[AutonomousSystem]] = {}
    for reg in regionals:
        assert reg.home_metro is not None
        regionals_at.setdefault(reg.home_metro.name, []).append(reg)
    regional_distances = per_home_metro(
        lambda home: [
            (mdist(group[0].home_metro, home), group) for group in regionals_at.values()
        ]
    )
    # Regional ISPs buy transit from providers with nearby presence, so
    # regionals in the same area share upstreams — which is why SD-WAN
    # alternates through different local ISPs often converge onto the same
    # transit AS (§5.2.4).
    upstreams_of = per_home_metro(
        lambda home: sorted(transits + tier1, key=lambda a: mdist(a.home_metro, home))[:4]
    )
    # Every regional homed within 2,000 km, in ASN order.
    lateral_of = per_home_metro(
        lambda home: sorted(
            (r for d, group in regional_distances(home) if d < 2000.0 for r in group),
            key=lambda r: r.asn,
        )
    )
    for reg in regionals:
        assert reg.home_metro is not None
        upstream_pool = upstreams_of(reg.home_metro)
        k = 1 if rng.random() < 0.6 else 2
        for provider in rng.sample(upstream_pool, k=min(k, len(upstream_pool))):
            if graph.relationship(provider.asn, reg.asn) is None:
                graph.add_provider_customer(provider.asn, reg.asn)
        # Settlement-free lateral peering (IXP-style): regionals peer with
        # transits and each other, multiplying the AS-level paths selective
        # advertisements can expose (§5.2.4).
        for transit in transits:
            if rng.random() < 0.15 and graph.relationship(transit.asn, reg.asn) is None:
                graph.add_peering_link(transit.asn, reg.asn)
        # Each earlier regional homed within 2,000 km draws once; the walk
        # stops at ``reg`` itself (distance 0).
        for other in lateral_of(reg.home_metro):
            if other is reg:
                break
            if rng.random() < 0.25 and graph.relationship(other.asn, reg.asn) is None:
                graph.add_peering_link(other.asn, reg.asn)

    # -- Stub / enterprise ASes ---------------------------------------------
    stubs = [
        make_as(ASRole.STUB, "st-", rng.choice(pool))
        for _ in range(config.n_stub)
    ]

    def nearby_regionals(home: Metro) -> List[AutonomousSystem]:
        """The eight regionals closest to ``home`` within 3,000 km, ties in
        ASN order."""
        near = sorted(
            (d, r.asn, r) for d, group in regional_distances(home) if d <= 3000.0 for r in group
        )
        return [r for _, _, r in near[:8]]

    nearby_regionals_of = per_home_metro(nearby_regionals)

    for stub in stubs:
        # Prefer nearby regional ISPs as providers; fall back to transit.
        assert stub.home_metro is not None
        # Enterprises buy access from *local* ISPs; where no regional ISP is
        # within reach they go straight to a transit provider.  (Without the
        # distance cap, stubs in sparse regions would buy from ISPs half a
        # world away and anycast would land them at absurd PoPs.)
        nearby = nearby_regionals_of(stub.home_metro)
        n_providers = max(1, min(4, int(rng.expovariate(1.0 / config.stub_multihoming_mean)) + 1))
        providers: List[AutonomousSystem] = []
        candidates = nearby + transits
        while len(providers) < n_providers and candidates:
            choice = rng.choice(candidates[:10]) if rng.random() < 0.8 else rng.choice(candidates)
            providers.append(choice)
            candidates = [p for p in candidates if p is not choice]
        for provider in providers:
            if graph.relationship(provider.asn, stub.asn) is None:
                graph.add_provider_customer(provider.asn, stub.asn)

    # -- Cloud peerings --------------------------------------------------------
    # Big transit/tier1 networks: present at many PoPs.  A configurable
    # fraction are paid transit providers of the cloud (PROVIDER), the rest
    # settlement-free peers; both are ingresses.
    big = tier1 + transits
    n_providers_of_cloud = max(1, round(len(big) * config.transit_provider_fraction))
    provider_set = set(rng.sample([a.asn for a in big], k=n_providers_of_cloud))
    for asys in big:
        rel = Relationship.PROVIDER if asys.asn in provider_set else Relationship.PEER
        presence = rng.randint(max(2, config.n_pops // 2), config.n_pops)
        if config.big_as_presence_cap is not None:
            # Cap AFTER the draw: the RNG stream (and thus every downstream
            # choice) is identical whether or not a cap is configured.
            presence = min(presence, config.big_as_presence_cap)
        for pop in rng.sample(pops, k=presence):
            deployment.add_peering(pop, asys.asn, rel)
        if rel is Relationship.PROVIDER:
            graph.add_provider_customer(asys.asn, CLOUD_ASN)
        elif graph.relationship(CLOUD_ASN, asys.asn) is None:
            graph.add_peering_link(CLOUD_ASN, asys.asn)

    # Nearest PoP per home metro (the first in PoP order on a tie, as
    # CloudDeployment.nearest_pop); the PoP set is frozen by this point.
    nearest_pop_of = per_home_metro(lambda home: min(pops, key=lambda pop: mdist(pop.metro, home)))

    # Regional ISPs: mostly single-PoP peers near home.
    for reg in regionals:
        if rng.random() >= config.regional_peering_prob:
            continue
        assert reg.home_metro is not None
        nearest = nearest_pop_of(reg.home_metro)
        try:
            deployment.add_peering(nearest, reg.asn, Relationship.PEER)
        except ValueError:
            continue  # already peers there via another role
        if graph.relationship(CLOUD_ASN, reg.asn) is None:
            graph.add_peering_link(CLOUD_ASN, reg.asn)

    # A few stubs peer directly (large enterprises).
    for stub in stubs:
        if rng.random() >= config.stub_peering_prob:
            continue
        assert stub.home_metro is not None
        nearest = nearest_pop_of(stub.home_metro)
        try:
            deployment.add_peering(nearest, stub.asn, Relationship.PEER)
        except ValueError:
            continue
        if graph.relationship(CLOUD_ASN, stub.asn) is None:
            graph.add_peering_link(CLOUD_ASN, stub.asn)

    graph.validate()
    return Topology(
        config=config,
        graph=graph,
        deployment=deployment,
        tier1_asns=[a.asn for a in tier1],
        transit_asns=[a.asn for a in transits],
        regional_asns=[a.asn for a in regionals],
        stub_asns=[a.asn for a in stubs],
    )
