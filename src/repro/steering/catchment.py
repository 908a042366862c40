"""Anycast catchment analysis (the paper's [32]/[54] context).

Under anycast, BGP — not the cloud — decides which PoP each UG's traffic
lands at; the resulting per-PoP *catchments* explain both anycast's appeal
(most users land somewhere close) and its pathologies (some users land an
ocean away — the paper's Fig. 1 problem, and the inflated tail PAINTER
fixes).  This analysis tabulates catchments from the ground-truth oracle and
measures that inflated tail directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.scenario import Scenario
from repro.topology.geo import haversine_km
from repro.usergroups.usergroup import UserGroup
from repro.util import percentile


@dataclass(frozen=True)
class CatchmentEntry:
    """One UG's anycast landing spot."""

    ug_id: int
    pop_name: str
    distance_km: float
    closest_pop_name: str
    closest_distance_km: float

    @property
    def inflation_km(self) -> float:
        """Extra distance versus the geographically closest PoP."""
        return self.distance_km - self.closest_distance_km

    @property
    def landed_at_closest(self) -> bool:
        return self.pop_name == self.closest_pop_name


class CatchmentAnalysis:
    """Per-PoP anycast catchments for a scenario."""

    def __init__(self, scenario: Scenario) -> None:
        self._scenario = scenario
        self._entries: List[CatchmentEntry] = []
        for ug in scenario.user_groups:
            ingress = scenario.routing.anycast_ingress(ug)
            assert ingress is not None
            closest = scenario.deployment.nearest_pop(ug.location)
            self._entries.append(
                CatchmentEntry(
                    ug_id=ug.ug_id,
                    pop_name=ingress.pop.name,
                    distance_km=haversine_km(ug.location, ingress.pop.location),
                    closest_pop_name=closest.name,
                    closest_distance_km=haversine_km(ug.location, closest.location),
                )
            )

    @property
    def entries(self) -> List[CatchmentEntry]:
        return list(self._entries)

    def catchment_volumes(self) -> Dict[str, float]:
        by_id = {ug.ug_id: ug for ug in self._scenario.user_groups}
        volumes: Dict[str, float] = {}
        for entry in self._entries:
            volumes[entry.pop_name] = (
                volumes.get(entry.pop_name, 0.0) + by_id[entry.ug_id].volume
            )
        return volumes

    def fraction_at_closest_pop(self) -> float:
        if not self._entries:
            return 0.0
        return sum(e.landed_at_closest for e in self._entries) / len(self._entries)

    def fraction_within_km(self, extra_km: float) -> float:
        """Share of UGs landing within ``extra_km`` of their closest PoP.

        Prior work found ~90% of a large CDN's traffic lands within 1,000 km
        of the closest possible PoP — with a heavy tail beyond it.
        """
        if not self._entries:
            return 0.0
        return sum(e.inflation_km <= extra_km for e in self._entries) / len(self._entries)

    def inflation_percentiles(
        self, fractions: Sequence[float] = (0.5, 0.9, 0.99)
    ) -> Dict[float, float]:
        values = sorted(e.inflation_km for e in self._entries)
        return {f: percentile(values, f) for f in fractions}

    def worst_entries(self, count: int = 5) -> List[CatchmentEntry]:
        """The Fig. 1 cases: UGs hauled farthest past their closest PoP."""
        return sorted(self._entries, key=lambda e: -e.inflation_km)[:count]
