"""Baseline advertisement strategies PAINTER is compared against (§5.1.2).

* **Anycast** — the default configuration D; by definition zero improvement.
* **Regional** — regional prefixes announced to transit providers (Azure's
  practice for some services; "offered little to no latency benefit").
* **One per PoP** — each PoP advertises its own prefix via all its peerings.
* **One per PoP w/ Reuse** — like One per PoP but PoPs more than ``D_reuse``
  km apart may share a prefix.
* **One per Peering** — a unique prefix per peering; realizes all possible
  benefit at full budget but burns a prefix per path.

Each strategy is budget-aware so the Fig. 6 benefit-vs-budget curves can be
swept; given a budget they spend it on the most valuable PoPs/peerings first
(ranked by volume-weighted latency opportunity).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.advertisement import AdvertisementConfig
from repro.core.routing_model import DEFAULT_D_REUSE_KM
from repro.scenario import Scenario
from repro.topology.cloud import Peering, PoP
from repro.topology.geo import haversine_km


def _pop_scores(scenario: Scenario) -> List[Tuple[PoP, float]]:
    """PoPs ranked by the latency opportunity of nearby traffic.

    A PoP's score is the volume-weighted improvement its *best* peering could
    give each UG, restricted to UGs for which that PoP hosts a compliant
    peering — a deployment-agnostic stand-in for "which PoPs matter most".
    """
    deployment = scenario.deployment
    model = scenario.latency_model
    scores: Dict[str, float] = {pop.name: 0.0 for pop in deployment.pops}
    for ug in scenario.user_groups:
        anycast = scenario.anycast_latency_ms(ug)
        compliant = scenario.catalog.ingress_ids(ug)
        best_per_pop: Dict[str, float] = {}
        for pid in compliant:
            peering = deployment.peering(pid)
            latency = model.latency_ms(ug, peering)
            improvement = max(0.0, anycast - latency)
            name = peering.pop.name
            if improvement > best_per_pop.get(name, 0.0):
                best_per_pop[name] = improvement
        for name, improvement in best_per_pop.items():
            scores[name] += ug.volume * improvement
    ranked = sorted(deployment.pops, key=lambda p: (-scores[p.name], p.name))
    return [(pop, scores[pop.name]) for pop in ranked]


def one_per_pop(scenario: Scenario, budget: int) -> AdvertisementConfig:
    """One prefix per PoP, advertised via every peering at that PoP."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    config = AdvertisementConfig()
    deployment = scenario.deployment
    for prefix, (pop, _score) in enumerate(_pop_scores(scenario)[:budget]):
        for peering in deployment.peerings_at(pop):
            config.add(prefix, peering.peering_id)
    return config


def one_per_pop_with_reuse(
    scenario: Scenario, budget: int, d_reuse_km: float = DEFAULT_D_REUSE_KM
) -> AdvertisementConfig:
    """One-per-PoP, but PoPs >= ``D_reuse`` apart may share a prefix.

    Greedy first-fit packing in rank order: a PoP joins the first prefix all
    of whose PoPs are at least ``d_reuse_km`` away, else opens a new prefix
    while budget remains.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    deployment = scenario.deployment
    config = AdvertisementConfig()
    prefix_pops: List[List[PoP]] = []
    for pop, _score in _pop_scores(scenario):
        assigned: Optional[int] = None
        for prefix, members in enumerate(prefix_pops):
            if all(pop.distance_km(member) >= d_reuse_km for member in members):
                assigned = prefix
                break
        if assigned is None:
            if len(prefix_pops) >= budget:
                continue  # budget exhausted; this PoP stays uncovered
            prefix_pops.append([])
            assigned = len(prefix_pops) - 1
        prefix_pops[assigned].append(pop)
        for peering in deployment.peerings_at(pop):
            config.add(assigned, peering.peering_id)
    return config


def _peering_scores(scenario: Scenario) -> List[Tuple[Peering, float]]:
    """Peerings ranked by standalone volume-weighted improvement."""
    deployment = scenario.deployment
    model = scenario.latency_model
    scores: Dict[int, float] = {p.peering_id: 0.0 for p in deployment.peerings}
    for ug in scenario.user_groups:
        anycast = scenario.anycast_latency_ms(ug)
        for pid in scenario.catalog.ingress_ids(ug):
            latency = model.latency_ms(ug, deployment.peering(pid))
            scores[pid] += ug.volume * max(0.0, anycast - latency)
    ranked = sorted(deployment.peerings, key=lambda p: (-scores[p.peering_id], p.peering_id))
    return [(peering, scores[peering.peering_id]) for peering in ranked]


def one_per_peering(scenario: Scenario, budget: int) -> AdvertisementConfig:
    """A unique prefix for each of the ``budget`` most valuable peerings.

    With full budget this exposes every path, so every UG can reach its best
    ingress — the 100%-benefit (and maximally prefix-hungry) reference.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    config = AdvertisementConfig()
    for prefix, (peering, _score) in enumerate(_peering_scores(scenario)[:budget]):
        config.add(prefix, peering.peering_id)
    return config


def regional_transit(scenario: Scenario, budget: int) -> AdvertisementConfig:
    """Regional prefixes announced to transit providers.

    One prefix per geographic region, advertised via the transit peerings at
    the region's PoPs.  The paper found this gave "little to no latency
    benefit over anycast" because transit routes dominate anycast already.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    deployment = scenario.deployment
    by_region: Dict[str, List[Peering]] = {}
    for peering in deployment.transit_peerings():
        by_region.setdefault(peering.pop.metro.region, []).append(peering)
    config = AdvertisementConfig()
    regions = sorted(by_region, key=lambda r: -len(by_region[r]))
    for prefix, region in enumerate(regions[:budget]):
        for peering in by_region[region]:
            config.add(prefix, peering.peering_id)
    return config


def regional_anycast(scenario: Scenario, budget: int) -> AdvertisementConfig:
    """Regional anycast (concurrent work the paper cites [115]): one prefix
    per geographic region, advertised via *every* peering at the region's
    PoPs.  Finer than global anycast, far coarser than PAINTER."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    deployment = scenario.deployment
    by_region: Dict[str, List[Peering]] = {}
    for peering in deployment.peerings:
        by_region.setdefault(peering.pop.metro.region, []).append(peering)
    config = AdvertisementConfig()
    regions = sorted(by_region, key=lambda r: -len(by_region[r]))
    for prefix, region in enumerate(regions[:budget]):
        for peering in by_region[region]:
            config.add(prefix, peering.peering_id)
    return config


#: Name -> builder, for experiment sweeps.  Builders take (scenario, budget).
BASELINE_STRATEGIES = {
    "one_per_pop": one_per_pop,
    "one_per_pop_with_reuse": one_per_pop_with_reuse,
    "one_per_peering": one_per_peering,
    "regional_transit": regional_transit,
    "regional_anycast": regional_anycast,
}
