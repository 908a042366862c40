"""Cloud deployment model: PoPs, peerings (ingresses), and IP prefixes.

In PAINTER's terms an *ingress* is a BGP peering: "where traffic enters if
Azure were to advertise a prefix solely via that peering" (§3.1).  The
deployment therefore exposes peerings as first-class objects that the
Advertisement Orchestrator allocates prefixes to.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.topology.asn import Relationship
from repro.topology.geo import GeoPoint, Metro, haversine_km


@dataclass(frozen=True)
class PoP:
    """A cloud point of presence, anchored to a metro."""

    name: str
    metro: Metro

    @property
    def location(self) -> GeoPoint:
        return self.metro.location

    def distance_km(self, other: "PoP") -> float:
        return haversine_km(self.location, other.location)


@dataclass(frozen=True)
class Peering:
    """A BGP session between the cloud and a neighbor AS at one PoP.

    ``relationship`` is the neighbor's relationship from the *cloud's*
    perspective: ``PROVIDER`` for a transit provider the cloud pays,
    ``PEER`` for settlement-free peers.
    """

    peering_id: int
    pop: PoP
    peer_asn: int
    relationship: Relationship

    def __post_init__(self) -> None:
        if self.relationship is Relationship.CUSTOMER:
            raise ValueError("cloud customers are served over PEER/PROVIDER sessions")

    @property
    def is_transit(self) -> bool:
        return self.relationship is Relationship.PROVIDER

    def __str__(self) -> str:
        kind = "transit" if self.is_transit else "peer"
        return f"peering#{self.peering_id}[AS{self.peer_asn}@{self.pop.name},{kind}]"


class PrefixPool:
    """Allocates /24 prefixes from a supernet, mimicking address-space cost.

    Prefixes are the scarce resource in PAINTER (each /24 costs real money and
    bloats global routing tables), so the pool enforces a hard capacity.
    """

    def __init__(self, supernet: str = "184.164.224.0/19") -> None:
        self._supernet = ipaddress.ip_network(supernet)
        if self._supernet.prefixlen > 24:
            raise ValueError("supernet must be at least a /24")
        self._subnets = list(self._supernet.subnets(new_prefix=24))
        self._next = 0

    @property
    def capacity(self) -> int:
        return len(self._subnets)

    @property
    def allocated(self) -> int:
        return self._next

    def allocate(self) -> str:
        if self._next >= len(self._subnets):
            raise RuntimeError(f"prefix pool exhausted ({self.capacity} /24s)")
        prefix = str(self._subnets[self._next])
        self._next += 1
        return prefix

    def reset(self) -> None:
        self._next = 0


class CloudDeployment:
    """The cloud's PoPs and peerings, plus its anycast prefix.

    This is the structural input to the Advertisement Orchestrator: it
    answers "which peerings exist", "where are they", and "which peerings
    belong to transit providers".
    """

    def __init__(self, name: str = "cloud", anycast_prefix: str = "184.164.254.0/24") -> None:
        self.name = name
        self.anycast_prefix = anycast_prefix
        self._pops: Dict[str, PoP] = {}
        self._peerings: Dict[int, Peering] = {}
        self._peerings_by_pop: Dict[str, List[Peering]] = {}
        self._peerings_by_asn: Dict[int, List[Peering]] = {}
        self._next_peering_id = 0

    # -- construction ------------------------------------------------------

    def add_pop(self, name: str, metro: Metro) -> PoP:
        if name in self._pops:
            raise ValueError(f"PoP {name!r} already exists")
        pop = PoP(name=name, metro=metro)
        self._pops[name] = pop
        self._peerings_by_pop[name] = []
        return pop

    def add_peering(self, pop: PoP, peer_asn: int, relationship: Relationship) -> Peering:
        if pop.name not in self._pops:
            raise ValueError(f"PoP {pop.name!r} not part of this deployment")
        for existing in self._peerings_by_pop[pop.name]:
            if existing.peer_asn == peer_asn:
                raise ValueError(f"AS{peer_asn} already peers at {pop.name}")
        peering = Peering(
            peering_id=self._next_peering_id,
            pop=pop,
            peer_asn=peer_asn,
            relationship=relationship,
        )
        self._next_peering_id += 1
        self._peerings[peering.peering_id] = peering
        self._peerings_by_pop[pop.name].append(peering)
        self._peerings_by_asn.setdefault(peer_asn, []).append(peering)
        return peering

    # -- lookups -----------------------------------------------------------

    @property
    def pops(self) -> List[PoP]:
        return list(self._pops.values())

    @property
    def peerings(self) -> List[Peering]:
        return list(self._peerings.values())

    def pop(self, name: str) -> PoP:
        try:
            return self._pops[name]
        except KeyError:
            raise KeyError(f"unknown PoP {name!r}") from None

    def peering(self, peering_id: int) -> Peering:
        try:
            return self._peerings[peering_id]
        except KeyError:
            raise KeyError(f"unknown peering id {peering_id}") from None

    def peerings_at(self, pop: PoP) -> List[Peering]:
        return list(self._peerings_by_pop.get(pop.name, []))

    def peerings_with(self, peer_asn: int) -> List[Peering]:
        return list(self._peerings_by_asn.get(peer_asn, []))

    def transit_peerings(self) -> List[Peering]:
        return [p for p in self._peerings.values() if p.is_transit]

    def peer_asns(self) -> List[int]:
        return sorted(self._peerings_by_asn)

    def has_direct_peering_with(self, asn: int) -> bool:
        return asn in self._peerings_by_asn

    def __len__(self) -> int:
        return len(self._peerings)

    def __iter__(self) -> Iterator[Peering]:
        return iter(self._peerings.values())

    # -- geometry ----------------------------------------------------------

    def nearest_pop(self, location: GeoPoint) -> PoP:
        if not self._pops:
            raise ValueError("deployment has no PoPs")
        return min(self._pops.values(), key=lambda p: haversine_km(p.location, location))

    def describe(self) -> str:
        transit = len(self.transit_peerings())
        return (
            f"{self.name}: {len(self._pops)} PoPs, {len(self._peerings)} peerings "
            f"({transit} transit), {len(self._peerings_by_asn)} neighbor ASes"
        )
