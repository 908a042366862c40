"""Simulating measurements for UGs without probes (Appendix C).

RIPE Atlas only covers ~47% of traffic volume, so the paper extrapolates:
for a UG without a probe, find probes within 500 km whose anycast latency is
within 10 ms, pool the *improvements over anycast* those probes saw along
their policy-compliant ingresses ("representative improvements"), and draw
each of the UG's per-ingress latencies from that pool.  "Probes in areas
with good routing ... induce simulated measurements for nearby UGs with good
routing."

The result is a latency source (``(ug, peering_id) -> Optional[float]``)
usable anywhere the orchestrator accepts one, letting the Fig. 6a pipeline
run over the full population from partial real coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from typing import TYPE_CHECKING

from repro.measurement.probes import ProbeFleet
from repro.usergroups.usergroup import UserGroup
from repro.util import stable_rng

if TYPE_CHECKING:  # avoid a circular import; Scenario is annotation-only here
    from repro.scenario import Scenario


@dataclass(frozen=True)
class ExtrapolationConfig:
    seed: int = 0
    #: Neighborhood radius for donor probes (paper: 500 km).
    radius_km: float = 500.0
    #: Max anycast-latency difference for a donor probe (paper: 10 ms).
    latency_tolerance_ms: float = 10.0


class SimulatedMeasurements:
    """Latency source combining real probe measurements and extrapolation.

    * UGs hosting a probe: true measured latency (via the ground-truth model,
      standing in for actual pings);
    * other UGs: anycast latency plus an improvement drawn from nearby
      probes' representative-improvement pool (clamped non-negative);
    * UGs with no eligible donor probes: ``None`` (unmeasurable), matching
      the paper's exclusion of uncovered UGs from real-measurement analyses.
    """

    def __init__(
        self,
        scenario: Scenario,
        fleet: ProbeFleet,
        config: Optional[ExtrapolationConfig] = None,
    ) -> None:
        self._scenario = scenario
        self._fleet = fleet
        self._config = config or ExtrapolationConfig()
        self._anycast = scenario.anycast_latencies()
        self._pool_cache: Dict[int, Optional[List[float]]] = {}
        self._value_cache: Dict[tuple, Optional[float]] = {}

    # -- donor pools -----------------------------------------------------------

    def _probe_improvements(self, probe: UserGroup) -> List[float]:
        """Improvements over anycast along the probe's compliant ingresses."""
        scenario = self._scenario
        anycast = self._anycast[probe.ug_id]
        improvements = []
        for peering in scenario.catalog.ingresses(probe):
            latency = scenario.latency_model.latency_ms(probe, peering)
            improvements.append(anycast - latency)  # may be negative
        return improvements

    def representative_improvements(self, ug: UserGroup) -> Optional[List[float]]:
        """The pooled improvements of all eligible donor probes."""
        cached = self._pool_cache.get(ug.ug_id, "unset")
        if cached != "unset":
            return cached  # type: ignore[return-value]
        donors = self._fleet.probes_near(
            ug,
            radius_km=self._config.radius_km,
            anycast_latency_ms=self._anycast,
            latency_tolerance_ms=self._config.latency_tolerance_ms,
        )
        pool: Optional[List[float]]
        if not donors:
            pool = None
        else:
            pool = []
            for donor in donors:
                pool.extend(self._probe_improvements(donor))
        self._pool_cache[ug.ug_id] = pool
        return pool

    # -- the latency source ------------------------------------------------------

    def __call__(self, ug: UserGroup, peering_id: int) -> Optional[float]:
        key = (ug.ug_id, peering_id)
        if key in self._value_cache:
            return self._value_cache[key]
        value = self._compute(ug, peering_id)
        self._value_cache[key] = value
        return value

    def _compute(self, ug: UserGroup, peering_id: int) -> Optional[float]:
        scenario = self._scenario
        peering = scenario.deployment.peering(peering_id)
        if not scenario.catalog.is_compliant(ug, peering):
            return None
        if self._fleet.has_probe(ug):
            # Real measurement.
            return scenario.latency_model.latency_ms(ug, peering)
        pool = self.representative_improvements(ug)
        if not pool:
            return None
        rng = stable_rng(self._config.seed, "extrapolate", ug.ug_id, peering_id)
        improvement = rng.choice(pool)
        return max(0.5, self._anycast[ug.ug_id] - improvement)

    # -- coverage reporting -------------------------------------------------------
