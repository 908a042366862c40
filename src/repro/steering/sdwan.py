"""SD-WAN multihoming comparator (§5.2.4).

An SD-WAN device selects among the enterprise's ISPs (plus a direct cloud
peering if one exists).  Paths and reachable PoPs are computed with the
paper's methodology: one path per ISP, whose ingress PoP is wherever that
ISP's clients ingress under the default (anycast) routing, "since routing is
destination-based".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.scenario import Scenario
from repro.usergroups.usergroup import UserGroup


@dataclass(frozen=True)
class SdwanView:
    """What an SD-WAN device at one UG can reach."""

    ug_id: int
    #: ISP ASNs selectable by the device (providers of the UG's AS).
    isp_asns: Tuple[int, ...]
    #: Whether the UG's AS peers directly with the cloud.
    has_direct_peering: bool
    #: Distinct ingress PoPs across the paths.
    pops: FrozenSet[str]
    #: AS-level paths, one per ISP (and the direct path if present); each is
    #: the tuple of intermediate ASNs (excludes the UG's AS and the cloud).
    paths: Tuple[Tuple[int, ...], ...]

    @property
    def path_count(self) -> int:
        return len(self.paths)


def sdwan_view(scenario: Scenario, ug: UserGroup) -> SdwanView:
    """Compute the SD-WAN path set for one UG."""
    graph = scenario.graph
    routing = scenario.routing
    deployment = scenario.deployment

    isp_asns = tuple(sorted(graph.providers(ug.asn))) if ug.asn in graph else ()
    has_direct = deployment.has_direct_peering_with(ug.asn)

    paths: List[Tuple[int, ...]] = []
    pops: Set[str] = set()

    for isp in isp_asns:
        # Traffic forced through this ISP reaches the cloud the way the
        # ISP's own clients do: take the ISP's default (anycast) AS path.
        isp_ug = UserGroup(
            ug_id=10_000_000 + isp,  # synthetic id; never collides with real UGs
            asn=isp,
            metro=graph.get_as(isp).home_metro or ug.metro,
            volume=0.0,
        )
        as_path = routing.default_as_path(isp_ug)
        if as_path is None:
            continue
        # Intermediate ASes: the ISP itself plus everything to the cloud
        # (exclusive).  as_path starts at the ISP's first hop... the path is
        # from the ISP's AS, so prepend the ISP.
        intermediates = (isp,) + tuple(a for a in as_path[:-1] if a != isp)
        paths.append(intermediates)
        ingress = routing.anycast_ingress(isp_ug)
        if ingress is not None:
            pops.add(ingress.pop.name)

    if has_direct:
        paths.append(())  # direct: no intermediate ASes
        for peering in deployment.peerings_with(ug.asn):
            pops.add(peering.pop.name)

    return SdwanView(
        ug_id=ug.ug_id,
        isp_asns=isp_asns,
        has_direct_peering=has_direct,
        pops=frozenset(pops),
        paths=tuple(paths),
    )
