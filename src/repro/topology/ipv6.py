"""IPv6 feasibility analysis (§2.4).

The paper rejects "just use IPv6 prefixes, they're free" for two measured
reasons: (1) IPv6 peering is less common than IPv4 in Azure's BGP data, so
selective advertisements could not expose all the paths; (2) routers store
roughly 8x fewer IPv6 FIB entries per unit of memory, so the routing-table
cost argument does not disappear.  This module annotates a deployment with
dual-stack availability and quantifies both effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from repro.topology.cloud import CloudDeployment
from repro.usergroups.ingresses import IngressCatalog
from repro.usergroups.usergroup import UserGroup
from repro.util import stable_rng

#: FIB entries per memory unit: IPv6 entries cost ~8x an IPv4 entry (§2.4).
IPV6_FIB_COST_FACTOR = 8.0


@dataclass(frozen=True)
class DualStackConfig:
    seed: int = 0
    #: Fraction of transit peerings with IPv6 sessions (transit is mostly
    #: dual-stack in practice).
    transit_v6_prob: float = 0.85
    #: Fraction of non-transit peerings with IPv6 sessions.
    peer_v6_prob: float = 0.55

    def __post_init__(self) -> None:
        for p in (self.transit_v6_prob, self.peer_v6_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0,1]")


class DualStackCatalog:
    """Which peerings carry IPv6 sessions, and what that costs PAINTER."""

    def __init__(
        self, deployment: CloudDeployment, config: Optional[DualStackConfig] = None
    ) -> None:
        self._deployment = deployment
        self._config = config or DualStackConfig()
        self._v6: Dict[int, bool] = {}
        for peering in deployment.peerings:
            prob = (
                self._config.transit_v6_prob
                if peering.is_transit
                else self._config.peer_v6_prob
            )
            rng = stable_rng(self._config.seed, "v6", peering.peering_id)
            self._v6[peering.peering_id] = rng.random() < prob

    def v6_peering_ids(self) -> FrozenSet[int]:
        return frozenset(pid for pid, ok in self._v6.items() if ok)

    def v6_fraction(self) -> float:
        if not self._v6:
            return 0.0
        return sum(self._v6.values()) / len(self._v6)


@dataclass(frozen=True)
class Ipv6Feasibility:
    """The two §2.4 measurements for one deployment."""

    v6_peering_fraction: float
    #: Volume-weighted share of each UG's compliant ingresses reachable v6.
    exposable_path_fraction: float
    #: FIB slots per prefix, v6-equivalent, relative to v4.
    fib_cost_factor: float


def analyze_ipv6_feasibility(
    catalog: IngressCatalog,
    dual_stack: DualStackCatalog,
) -> Ipv6Feasibility:
    """Quantify the paths an IPv6-only PAINTER could not expose."""
    deployment = catalog.topology.deployment
    total_weight = 0.0
    exposable_weight = 0.0
    for ug in catalog.user_groups:
        compliant = catalog.ingress_ids(ug)
        if not compliant:
            continue
        v6_compliant = compliant & dual_stack.v6_peering_ids()
        total_weight += ug.volume
        exposable_weight += ug.volume * len(v6_compliant) / len(compliant)
    return Ipv6Feasibility(
        v6_peering_fraction=dual_stack.v6_fraction(),
        exposable_path_fraction=(
            exposable_weight / total_weight if total_weight else 0.0
        ),
        fib_cost_factor=IPV6_FIB_COST_FACTOR,
    )
