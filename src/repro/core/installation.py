"""Installing a computed configuration: prefixes, announcements, TM-PoPs.

Algorithm 1 produces an abstract prefix->peering-set mapping; deploying it
means (per §3.1-3.2): allocating real /24s from the cloud's address space,
announcing each via its peerings, standing up TM-PoPs at the PoPs involved,
and notifying the Traffic Manager which destination prefixes exist per
service over the control channel.  This module performs that binding so the
Advertisement Orchestrator's output can drive the Traffic Manager data plane
end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.advertisement import AdvertisementConfig
from repro.scenario import Scenario
from repro.topology.cloud import Peering, PoP, PrefixPool
from repro.traffic_manager.tm_pop import PrefixDirectory, TMPoP
from repro.traffic_manager.tunnel import TMPoPNat

#: Default service installed at every PoP when no placement is given.
DEFAULT_SERVICE = "default"


@dataclass(frozen=True)
class InstalledPrefix:
    """One abstract prefix bound to a real /24 and its announcements."""

    prefix_index: int
    cidr: str
    peering_ids: FrozenSet[int]
    pop_names: FrozenSet[str]


@dataclass
class Installation:
    """A deployed configuration: address bindings, TM-PoPs, directory."""

    scenario: Scenario
    anycast_cidr: str
    prefixes: List[InstalledPrefix]
    directory: PrefixDirectory
    tm_pops: Dict[str, TMPoP] = field(default_factory=dict)

    def announcements(self) -> List[Tuple[str, FrozenSet[int]]]:
        """(cidr, peering ids) pairs, anycast first — the BGP install plan."""
        all_ids = frozenset(
            p.peering_id for p in self.scenario.deployment.peerings
        )
        plan: List[Tuple[str, FrozenSet[int]]] = [(self.anycast_cidr, all_ids)]
        plan.extend((p.cidr, p.peering_ids) for p in self.prefixes)
        return plan


def install_configuration(
    scenario: Scenario,
    config: AdvertisementConfig,
    pool: Optional[PrefixPool] = None,
    service_placement: Optional[Mapping[str, Sequence[str]]] = None,
    nat_ips_per_pop: int = 2,
) -> Installation:
    """Bind ``config`` to real prefixes and Traffic Manager nodes.

    ``service_placement`` maps service names to the PoP names that can serve
    them ("available PoPs may vary depending on the service", §3.2); by
    default one service is served everywhere.  Raises if the prefix pool
    cannot cover the configuration.
    """
    pool = pool or PrefixPool()
    deployment = scenario.deployment
    if config.prefix_count + 1 > pool.capacity - pool.allocated:
        raise RuntimeError(
            f"prefix pool too small: need {config.prefix_count + 1}, "
            f"have {pool.capacity - pool.allocated}"
        )

    anycast_cidr = pool.allocate()
    installed: List[InstalledPrefix] = []
    for prefix_index in config.prefixes:
        peering_ids = config.peerings_for(prefix_index)
        pops = frozenset(
            deployment.peering(pid).pop.name for pid in peering_ids
        )
        installed.append(
            InstalledPrefix(
                prefix_index=prefix_index,
                cidr=pool.allocate(),
                peering_ids=peering_ids,
                pop_names=pops,
            )
        )

    # Stand up one TM-PoP per deployment PoP; each gets NAT addresses and
    # the service placements it hosts.
    directory = PrefixDirectory()
    tm_pops: Dict[str, TMPoP] = {}
    placements = dict(service_placement or {DEFAULT_SERVICE: [p.name for p in deployment.pops]})
    for pop in deployment.pops:
        nat_ips = [f"100.64.{pop_octet(pop)}.{i + 1}" for i in range(nat_ips_per_pop)]
        tm_pop = TMPoP(name=f"tm-{pop.name}", pop=pop, nat=TMPoPNat(nat_ips))
        for service, pop_names in placements.items():
            if pop.name in pop_names:
                tm_pop.add_service(service)
        tm_pops[pop.name] = tm_pop
        directory.register(tm_pop)

    # Attach each installed prefix (and anycast) to the TM-PoPs behind it.
    for installed_prefix in installed:
        for pop_name in installed_prefix.pop_names:
            tm_pops[pop_name].attach_prefix(installed_prefix.cidr)
    for tm_pop in tm_pops.values():
        tm_pop.attach_prefix(anycast_cidr)

    return Installation(
        scenario=scenario,
        anycast_cidr=anycast_cidr,
        prefixes=installed,
        directory=directory,
        tm_pops=tm_pops,
    )


_POP_OCTETS: Dict[str, int] = {}


def pop_octet(pop: PoP) -> int:
    """A stable small integer per PoP for synthesizing NAT addresses."""
    if pop.name not in _POP_OCTETS:
        _POP_OCTETS[pop.name] = len(_POP_OCTETS) % 250
    return _POP_OCTETS[pop.name]
