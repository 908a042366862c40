"""Scenario: one fully-assembled synthetic world.

A scenario bundles everything an experiment needs — topology, user groups,
policy-compliant ingress catalog, ground-truth latency, ground-truth routing,
and per-UG anycast baselines — constructed deterministically from one seed.

Two presets mirror the paper's two evaluation settings:

* :func:`prototype_scenario` — PEERING/Vultr scale (25 PoPs, hundreds of
  neighbor ASes) where real advertisements could be conducted (§5.1.1);
* :func:`azure_scenario` — a larger deployment standing in for Azure's
  (~200 PoPs, thousands of peerings), where the paper relied on estimated
  and simulated measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.measurement.latency_model import LatencyModel, LatencyModelConfig
from repro.routing.ground_truth import GroundTruthRouting
from repro.topology.builder import Topology, TopologyConfig, build_topology
from repro.topology.cloud import Peering
from repro.topology.geo import WORLD_METROS, synthetic_metros
from repro.usergroups.generation import UserGroupConfig, generate_user_groups
from repro.usergroups.ingresses import IngressCatalog
from repro.usergroups.usergroup import UserGroup


@dataclass
class Scenario:
    """A complete synthetic evaluation world."""

    name: str
    topology: Topology
    user_groups: List[UserGroup]
    catalog: IngressCatalog
    latency_model: LatencyModel
    routing: GroundTruthRouting
    _anycast_cache: Dict[int, float] = field(default_factory=dict, repr=False)

    @property
    def deployment(self):
        return self.topology.deployment

    @property
    def graph(self):
        return self.topology.graph

    def set_ug_volume(self, ug_id: int, volume: float) -> UserGroup:
        """Mutate one UG's traffic volume in place (a workload delta).

        :class:`UserGroup` is frozen, and the same object is referenced
        from the catalog, the orchestrator's affected-map, and any held
        configs — so the shift is applied through ``object.__setattr__``
        on the shared instance rather than by rebuilding the population.
        Callers holding derived volume arrays (the orchestrator) must
        patch them; use :meth:`PainterOrchestrator.apply_volume_shift`,
        which does, instead of calling this directly.
        """
        if not (math.isfinite(volume) and volume >= 0):
            raise ValueError(f"volume must be a finite non-negative number, not {volume!r}")
        for ug in self.user_groups:
            if ug.ug_id == ug_id:
                object.__setattr__(ug, "volume", float(volume))
                return ug
        raise KeyError(f"unknown UG id {ug_id}")

    def anycast_latency_ms(self, ug: UserGroup, day: int = 0) -> float:
        """The UG's latency under the default anycast configuration D.

        Every UG has an anycast route (the anycast prefix is advertised via
        every peering, and every UG has at least the transit ingresses), so
        this never returns ``None``.
        """
        if day == 0 and ug.ug_id in self._anycast_cache:
            return self._anycast_cache[ug.ug_id]
        latency = self.routing.anycast_latency_ms(ug, day=day)
        if latency is None:
            raise RuntimeError(f"{ug} unexpectedly has no anycast route")
        if day == 0:
            self._anycast_cache[ug.ug_id] = latency
        return latency

    def anycast_latencies(self, day: int = 0) -> Dict[int, float]:
        return {ug.ug_id: self.anycast_latency_ms(ug, day=day) for ug in self.user_groups}

    def best_ingress(self, ug: UserGroup, day: int = 0) -> Optional[Peering]:
        """The UG's policy-compliant peering with the lowest true latency,
        ``None`` if it has none (catalog order is by peering id and a tie
        keeps the first, so ties go to the lowest id)."""
        best: Optional[Peering] = None
        best_latency = math.inf
        for peering in self.catalog.ingresses(ug):
            latency = self.latency_model.latency_ms(ug, peering, day=day)
            if latency < best_latency:
                best, best_latency = peering, latency
        return best

    def best_possible_latency_ms(self, ug: UserGroup, day: int = 0) -> float:
        """Latency via :meth:`best_ingress` (oracle bound).

        This is what the One-per-Peering strategy achieves at full budget —
        the denominator of "percent of possible benefit" in Fig. 6a.
        """
        best = self.best_ingress(ug, day=day)
        if best is None:
            raise RuntimeError(f"{ug} has no policy-compliant ingress")
        return self.latency_model.latency_ms(ug, best, day=day)

    def total_possible_benefit(self, day: int = 0) -> float:
        """Volume-weighted sum of (anycast - best possible) over all UGs."""
        total = 0.0
        for ug in self.user_groups:
            improvement = self.anycast_latency_ms(ug, day=day) - self.best_possible_latency_ms(
                ug, day=day
            )
            total += ug.volume * max(0.0, improvement)
        return total

    def describe(self) -> str:
        return (
            f"scenario {self.name!r}: {self.deployment.describe()}; "
            f"{len(self.user_groups)} UGs"
        )


def build_scenario(
    name: str,
    topology_config: TopologyConfig,
    ug_config: UserGroupConfig,
    latency_config: Optional[LatencyModelConfig] = None,
    routing_seed: Optional[int] = None,
) -> Scenario:
    """Assemble a scenario from explicit configs (all seeded)."""
    topology = build_topology(topology_config)
    ugs = generate_user_groups(topology, ug_config)
    catalog = IngressCatalog(topology, ugs)
    latency_model = LatencyModel(latency_config or LatencyModelConfig(seed=topology_config.seed))
    routing = GroundTruthRouting(
        topology,
        latency_model,
        seed=topology_config.seed if routing_seed is None else routing_seed,
    )
    return Scenario(
        name=name,
        topology=topology,
        user_groups=ugs,
        catalog=catalog,
        latency_model=latency_model,
        routing=routing,
    )


# -- preset build caching -----------------------------------------------------
#
# Scenario construction (topology + BGP-ready graph + UG population) is the
# expensive shared step when many experiments run in one process.  The cache
# is OPT-IN: worlds are shared only after enable_preset_cache(), because
# sharing is a semantic choice (deterministic internal caches are shared
# too).  The parallel experiment runner enables it per worker process.

_preset_cache_enabled = False
_preset_cache: Dict[tuple, Scenario] = {}


def enable_preset_cache(enabled: bool = True) -> None:
    """Share identically-parameterized preset worlds within this process."""
    global _preset_cache_enabled
    _preset_cache_enabled = enabled
    if not enabled:
        _preset_cache.clear()


def _maybe_cached(key: tuple, factory) -> Scenario:
    if not _preset_cache_enabled:
        return factory()
    cached = _preset_cache.get(key)
    if cached is None:
        cached = _preset_cache[key] = factory()
    return cached


def prototype_scenario(seed: int = 0, n_ugs: int = 400) -> Scenario:
    """PEERING/Vultr-prototype scale: 25 PoPs, a few hundred neighbor ASes."""
    return _maybe_cached(
        ("prototype", seed, n_ugs), lambda: _build_prototype(seed, n_ugs)
    )


def _build_prototype(seed: int, n_ugs: int) -> Scenario:
    return build_scenario(
        name="prototype",
        topology_config=TopologyConfig(
            seed=seed,
            n_pops=25,
            n_tier1=5,
            n_transit=12,
            n_regional=60,
            n_stub=300,
        ),
        ug_config=UserGroupConfig(seed=seed + 1, n_ugs=n_ugs),
    )


def azure_scenario(seed: int = 0, n_ugs: int = 1200) -> Scenario:
    """Azure-like scale: more PoPs and far more peerings per PoP."""
    return _maybe_cached(("azure", seed, n_ugs), lambda: _build_azure(seed, n_ugs))


def _build_azure(seed: int, n_ugs: int) -> Scenario:
    return build_scenario(
        name="azure-like",
        topology_config=TopologyConfig(
            seed=seed,
            n_pops=40,
            n_tier1=8,
            n_transit=24,
            n_regional=160,
            n_stub=900,
            regional_peering_prob=0.7,
        ),
        ug_config=UserGroupConfig(seed=seed + 1, n_ugs=n_ugs),
    )


#: PoP count of the ``mega`` preset; the metro pool is padded with synthetic
#: metros so every PoP lands in a distinct metro.
MEGA_N_POPS = 500


def mega_scenario(seed: int = 0, n_ugs: int = 100_000) -> Scenario:
    """Hyperscaler stress scale: 500 PoPs, ~22k neighbor ASes, 100k UGs.

    This preset exists to exercise the dense latency/distance matrices and
    the row engine at a scale where a per-UG dict layout would not fit;
    ``big_as_presence_cap`` keeps the peering count (and thus the dense
    matrix width) linear in the PoP count.
    """
    return _maybe_cached(("mega", seed, n_ugs), lambda: _build_mega(seed, n_ugs))


def _build_mega(seed: int, n_ugs: int) -> Scenario:
    metros = WORLD_METROS + synthetic_metros(MEGA_N_POPS - len(WORLD_METROS), seed=seed)
    return build_scenario(
        name="mega",
        topology_config=TopologyConfig(
            seed=seed,
            n_pops=MEGA_N_POPS,
            n_tier1=8,
            n_transit=24,
            n_regional=2000,
            n_stub=20000,
            transit_provider_fraction=0.25,
            regional_peering_prob=0.5,
            stub_peering_prob=0.01,
            metros=metros,
            big_as_presence_cap=24,
        ),
        ug_config=UserGroupConfig(seed=seed + 1, n_ugs=n_ugs, metros=metros),
    )


def tiny_scenario(seed: int = 0, n_ugs: int = 60) -> Scenario:
    """Small world for fast unit tests."""
    return _maybe_cached(("tiny", seed, n_ugs), lambda: _build_tiny(seed, n_ugs))


def _build_tiny(seed: int, n_ugs: int) -> Scenario:
    return build_scenario(
        name="tiny",
        topology_config=TopologyConfig(
            seed=seed,
            n_pops=6,
            n_tier1=2,
            n_transit=4,
            n_regional=12,
            n_stub=50,
        ),
        ug_config=UserGroupConfig(seed=seed + 1, n_ugs=n_ugs),
    )


#: The two worlds the paper's claims are checked in (an experiment's
#: ``claims_at`` names one as its ``scenario``): a prototype-like world and
#: an Azure-flavoured one with more PoPs and peerings, both sized so every
#: claim runs in under a minute.  Not presets: no ``--preset`` offers them.
CLAIM_WORLDS = {
    "claims-prototype": (
        TopologyConfig(seed=0, n_pops=15, n_tier1=4, n_transit=8, n_regional=36, n_stub=180),
        UserGroupConfig(seed=1, n_ugs=200),
    ),
    "claims-azure": (
        TopologyConfig(
            seed=0, n_pops=25, n_tier1=5, n_transit=14, n_regional=70, n_stub=320,
            regional_peering_prob=0.7,
        ),
        UserGroupConfig(seed=1, n_ugs=300),
    ),
}


def claim_scenario(name: str) -> Scenario:
    """The claim world ``name`` of :data:`CLAIM_WORLDS`, through the preset cache."""
    topology_config, ug_config = CLAIM_WORLDS[name]
    return _maybe_cached(
        ("claims", name), lambda: build_scenario(name, topology_config, ug_config)
    )


#: Every scenario preset by name: the choices of each ``--preset`` flag and
#: the names :class:`~repro.soak.SoakConfig` and
#: :class:`~repro.experiments.replay.ReplayConfig` accept.
PRESETS = {
    "tiny": tiny_scenario,
    "prototype": prototype_scenario,
    "azure": azure_scenario,
    "mega": mega_scenario,
}
