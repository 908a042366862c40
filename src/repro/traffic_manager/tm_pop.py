"""TM-PoP: the cloud-side Traffic Manager node at a PoP.

TM-PoPs "relay traffic destined to many prefixes to appropriate cloud
services" (Fig. 4): they terminate tunnels from TM-Edges, NAT client traffic
(Appendix D), and answer TM-Edge queries about which services they can
serve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.topology.cloud import PoP
from repro.traffic_manager.tunnel import Packet, TMPoPNat


@dataclass
class TMPoP:
    """A Traffic Manager node integrated with a PoP front-end."""

    name: str
    pop: PoP
    nat: TMPoPNat
    #: Services reachable from this PoP ("available PoPs may vary depending
    #: on the service since each service may only be served from certain
    #: PoPs or regions", §3.2).
    services: Set[str] = field(default_factory=set)
    #: Ingress prefixes whose traffic lands at this TM-PoP.
    ingress_prefixes: Set[str] = field(default_factory=set)

    def serves(self, service: str) -> bool:
        return service in self.services

    def add_service(self, service: str) -> None:
        self.services.add(service)

    def attach_prefix(self, prefix: str) -> None:
        self.ingress_prefixes.add(prefix)

    def handle_ingress(self, packet: Packet) -> Packet:
        """Decapsulate + NAT a tunneled client packet toward the service."""
        return self.nat.ingress(packet)

    def handle_service_reply(self, packet: Packet) -> Packet:
        """NAT-restore and re-encapsulate a service reply toward TM-Edge."""
        return self.nat.egress(packet)


class PrefixDirectory:
    """The Azure service TM-Edges query to resolve available destinations.

    Maintains prefix -> TM-PoP mappings, which "is difficult to compute
    apriori, as prefixes may be advertised via multiple peerings at multiple
    PoPs" (§3.2) — so TM-Edges learn the mapping by establishing tunnels and
    identifying the TM-PoP at the far end; this directory models the
    control-channel announcement of *available* prefixes per service.
    """

    def __init__(self) -> None:
        self._pops: Dict[str, TMPoP] = {}

    def register(self, tm_pop: TMPoP) -> None:
        if tm_pop.name in self._pops:
            raise ValueError(f"TM-PoP {tm_pop.name!r} already registered")
        self._pops[tm_pop.name] = tm_pop

    def pops(self) -> List[TMPoP]:
        return list(self._pops.values())

    def get(self, name: str) -> TMPoP:
        try:
            return self._pops[name]
        except KeyError:
            raise KeyError(f"unknown TM-PoP {name!r}") from None

    def prefixes_for_service(self, service: str) -> FrozenSet[str]:
        """All ingress prefixes leading to a TM-PoP that serves ``service``."""
        result: Set[str] = set()
        for tm_pop in self._pops.values():
            if tm_pop.serves(service):
                result |= tm_pop.ingress_prefixes
        return frozenset(result)

    def pop_for_prefix(self, prefix: str) -> Optional[TMPoP]:
        """The TM-PoP behind a prefix (identified by tunnel establishment)."""
        for tm_pop in self._pops.values():
            if prefix in tm_pop.ingress_prefixes:
                return tm_pop
        return None
