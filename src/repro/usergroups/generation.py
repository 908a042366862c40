"""Synthetic user-group population with Zipf-distributed traffic volumes.

Azure weights UGs by traffic volume when maximizing benefit (Eq. 1); traffic
volumes across networks are famously heavy-tailed, so we draw weights from a
Zipf-like distribution.  UGs are placed in metros near their AS's home metro,
giving multi-metro ASes several UGs, like the paper's (AS, metro) grouping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.topology.builder import Topology
from repro.topology.geo import WORLD_METROS, Metro, haversine_km
from repro.usergroups.usergroup import UserGroup
from repro.util import sequential_sum


@dataclass(frozen=True)
class UserGroupConfig:
    """Knobs for the synthetic UG population."""

    seed: int = 0
    n_ugs: int = 500
    #: Zipf exponent for traffic volume (1.0-1.2 matches web-traffic studies).
    zipf_exponent: float = 1.1
    #: Max distance (km) between an AS's home metro and a UG's metro.
    metro_spread_km: float = 2500.0
    #: Probability a UG lands in its AS's home metro exactly.
    home_metro_prob: float = 0.6
    #: Metro pool UGs may land in.  ``None`` means :data:`WORLD_METROS`;
    #: presets with an extended topology pool pass the same pool here.
    metros: Optional[Tuple[Metro, ...]] = None

    def __post_init__(self) -> None:
        if self.n_ugs < 1:
            raise ValueError("need at least one UG")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")


def zipf_weights(n: int, exponent: float) -> List[float]:
    """Weights proportional to 1/rank^exponent, normalized to sum to 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    raw = [1.0 / (rank**exponent) for rank in range(1, n + 1)]
    total = sequential_sum(raw)
    return [w / total for w in raw]


def generate_user_groups(
    topology: Topology, config: Optional[UserGroupConfig] = None
) -> List[UserGroup]:
    """Create a reproducible UG population over the topology's edge ASes."""
    config = config or UserGroupConfig()
    rng = random.Random(config.seed)

    edge_asns = topology.edge_asns()
    if not edge_asns:
        raise ValueError("topology has no edge ASes to host user groups")

    weights = zipf_weights(config.n_ugs, config.zipf_exponent)
    rng.shuffle(weights)  # volume rank should not correlate with creation order

    pool: Sequence[Metro] = config.metros if config.metros is not None else WORLD_METROS
    # ASes sharing a home metro share a nearby-metro list; memoize it so the
    # placement loop stays O(attempts), not O(attempts x pool).
    nearby_memo: Dict[str, List[Metro]] = {}

    ugs: List[UserGroup] = []
    seen_keys = set()
    attempts = 0
    while len(ugs) < config.n_ugs and attempts < config.n_ugs * 20:
        attempts += 1
        asn = rng.choice(edge_asns)
        home = topology.graph.get_as(asn).home_metro
        assert home is not None
        metro = _pick_metro(rng, home, config, pool, nearby_memo)
        key = (asn, metro.name)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        ugs.append(
            UserGroup(
                ug_id=len(ugs),
                asn=asn,
                metro=metro,
                volume=weights[len(ugs)],
            )
        )
    if len(ugs) < config.n_ugs:
        raise RuntimeError(
            f"could only place {len(ugs)}/{config.n_ugs} distinct UGs; "
            "increase topology size or metro spread"
        )
    return ugs


def _pick_metro(
    rng: random.Random,
    home: Metro,
    config: UserGroupConfig,
    pool: Sequence[Metro],
    nearby_memo: Dict[str, List[Metro]],
) -> Metro:
    if rng.random() < config.home_metro_prob:
        return home
    nearby = nearby_memo.get(home.name)
    if nearby is None:
        nearby = [
            metro
            for metro in pool
            if haversine_km(metro.location, home.location) <= config.metro_spread_km
        ]
        nearby_memo[home.name] = nearby
    return rng.choice(nearby) if nearby else home


def total_volume(ugs: Sequence[UserGroup]) -> float:
    return sum(ug.volume for ug in ugs)
