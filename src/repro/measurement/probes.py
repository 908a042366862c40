"""A RIPE-Atlas-like probe fleet over the UG population.

The paper measured real latencies only from UGs hosting RIPE Atlas probes
(47% of traffic volume) and *simulated* measurements for the rest by
extrapolating from nearby probes (Appendix C).  The fleet model captures the
two properties that matter: partial coverage, and a bias toward high-volume
UGs ("RIPE Atlas probes tend to be in UGs that generate lots of Azure
traffic volume").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.topology.geo import haversine_km
from repro.usergroups.usergroup import UserGroup


@dataclass(frozen=True)
class ProbeFleetConfig:
    seed: int = 0
    #: Fraction of UGs hosting a probe.
    coverage_fraction: float = 0.35
    #: Strength of the bias toward high-volume UGs (0 = uniform).
    volume_bias: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage_fraction <= 1.0:
            raise ValueError("coverage_fraction must be in (0,1]")
        if self.volume_bias < 0:
            raise ValueError("volume_bias must be non-negative")


class ProbeFleet:
    """Which UGs host probes, and probe-neighborhood queries."""

    def __init__(
        self, ugs: Sequence[UserGroup], config: Optional[ProbeFleetConfig] = None
    ) -> None:
        self._config = config or ProbeFleetConfig()
        self._ugs = list(ugs)
        rng = random.Random(self._config.seed)
        n_probes = max(1, round(len(self._ugs) * self._config.coverage_fraction))
        weights = [max(ug.volume, 1e-12) ** self._config.volume_bias for ug in self._ugs]
        self._probe_ids = frozenset(
            ug.ug_id for ug in _weighted_sample(rng, self._ugs, weights, n_probes)
        )

    def has_probe(self, ug: UserGroup) -> bool:
        return ug.ug_id in self._probe_ids

    def probe_ugs(self) -> List[UserGroup]:
        return [ug for ug in self._ugs if ug.ug_id in self._probe_ids]

    def probes_near(
        self,
        ug: UserGroup,
        radius_km: float,
        anycast_latency_ms: Optional[Dict[int, float]] = None,
        latency_tolerance_ms: float = 10.0,
    ) -> List[UserGroup]:
        """Probe UGs within ``radius_km`` of ``ug``.

        If anycast latencies are supplied, also require the probe's anycast
        latency to be within ``latency_tolerance_ms`` of the UG's — the
        Appendix C similarity criterion (500 km and 10 ms in the paper).
        """
        result = []
        for probe in self.probe_ugs():
            if probe.ug_id == ug.ug_id:
                continue
            if haversine_km(probe.location, ug.location) > radius_km:
                continue
            if anycast_latency_ms is not None:
                mine = anycast_latency_ms.get(ug.ug_id)
                theirs = anycast_latency_ms.get(probe.ug_id)
                if mine is None or theirs is None:
                    continue
                if abs(mine - theirs) > latency_tolerance_ms:
                    continue
            result.append(probe)
        return result


def _weighted_sample(
    rng: random.Random,
    items: Sequence[UserGroup],
    weights: Sequence[float],
    k: int,
) -> List[UserGroup]:
    """Sample ``k`` distinct items with probability proportional to weight."""
    chosen: List[UserGroup] = []
    pool = list(zip(items, weights))
    for _ in range(min(k, len(pool))):
        total = sum(w for _, w in pool)
        pick = rng.uniform(0.0, total)
        acc = 0.0
        for idx, (item, weight) in enumerate(pool):
            acc += weight
            if pick <= acc:
                chosen.append(item)
                pool.pop(idx)
                break
        else:  # floating point edge: take the last
            item, _ = pool.pop()
            chosen.append(item)
    return chosen
