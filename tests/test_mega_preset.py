"""The ``mega`` preset: extended metro pools, capped presence, inverted
catalog build, and the 100k-UG smoke at the slow tier.

The fast tests pin down the machinery mega relies on (synthetic metros,
``TopologyConfig.metros``/``big_as_presence_cap``, the ASN-grouped
:class:`IngressCatalog` build) at small scale; the slow tier builds the real
500-PoP/100k-UG world, solves it through the dense-matrix path, and gates
peak RSS.
"""

from __future__ import annotations

import resource

import pytest

from repro.scenario import (
    MEGA_N_POPS,
    build_scenario,
    mega_scenario,
    tiny_scenario,
)
from repro.topology.builder import TopologyConfig, build_topology
from repro.topology.geo import WORLD_METROS, synthetic_metros
from repro.usergroups.generation import UserGroupConfig
from repro.usergroups.ingresses import IngressCatalog, policy_compliant_peerings

# ---------------------------------------------------------------------------
# synthetic metro pool
# ---------------------------------------------------------------------------


def test_synthetic_metros_deterministic_and_distinct() -> None:
    a = synthetic_metros(40, seed=3)
    b = synthetic_metros(40, seed=3)
    assert a == b  # same seed, bit-identical pool (stable across processes)
    assert synthetic_metros(40, seed=4) != a
    names = {m.name for m in a}
    assert len(names) == 40
    assert not names & {m.name for m in WORLD_METROS}  # syn- prefix never collides
    for metro in a:
        assert -90.0 <= metro.location.lat <= 90.0
        assert metro.region.startswith("syn-")


def test_synthetic_metros_validation() -> None:
    assert synthetic_metros(0) == ()
    with pytest.raises(ValueError, match="non-negative"):
        synthetic_metros(-1)


# ---------------------------------------------------------------------------
# TopologyConfig pool & presence cap
# ---------------------------------------------------------------------------


def test_metro_pool_allows_more_pops_than_world_metros() -> None:
    pool = WORLD_METROS + synthetic_metros(16, seed=0)
    config = TopologyConfig(seed=0, n_pops=len(pool), metros=pool)
    topology = build_topology(config)
    assert len(topology.deployment.pops) == len(pool)


def test_metro_pool_validation() -> None:
    with pytest.raises(ValueError, match="at most"):
        TopologyConfig(n_pops=len(WORLD_METROS) + 1)
    with pytest.raises(ValueError, match="duplicate metro names"):
        TopologyConfig(n_pops=2, metros=WORLD_METROS + (WORLD_METROS[0],))
    with pytest.raises(ValueError, match="big_as_presence_cap"):
        TopologyConfig(big_as_presence_cap=1)


def test_presence_cap_bounds_big_as_peerings_without_shifting_rng() -> None:
    uncapped = build_topology(TopologyConfig(seed=2, n_pops=20))
    capped = build_topology(TopologyConfig(seed=2, n_pops=20, big_as_presence_cap=3))
    big = set(capped.tier1_asns) | set(capped.transit_asns)
    for asn in big:
        assert len(capped.deployment.peerings_with(asn)) <= 3
    # The cap applies after the presence draw, so the rest of the world —
    # which consumes the same RNG stream — is unchanged.
    assert capped.tier1_asns == uncapped.tier1_asns
    assert capped.stub_asns == uncapped.stub_asns
    assert [a.home_metro.name for a in map(capped.graph.get_as, capped.regional_asns)] == [
        a.home_metro.name for a in map(uncapped.graph.get_as, uncapped.regional_asns)
    ]


# ---------------------------------------------------------------------------
# inverted IngressCatalog build == the per-UG reference rules
# ---------------------------------------------------------------------------


def _assert_catalog_matches_reference(scenario) -> None:
    for ug in scenario.user_groups:
        reference = frozenset(
            p.peering_id for p in policy_compliant_peerings(ug, scenario.topology)
        )
        assert scenario.catalog.ingress_ids(ug) == reference, ug


def test_catalog_matches_reference_tiny() -> None:
    _assert_catalog_matches_reference(tiny_scenario(seed=9))


def test_catalog_matches_reference_with_extended_pool() -> None:
    pool = WORLD_METROS + synthetic_metros(36, seed=1)
    scenario = build_scenario(
        name="mini-mega",
        topology_config=TopologyConfig(
            seed=1,
            n_pops=len(pool),
            n_tier1=3,
            n_transit=6,
            n_regional=30,
            n_stub=150,
            metros=pool,
            big_as_presence_cap=4,
        ),
        ug_config=UserGroupConfig(seed=2, n_ugs=150, metros=pool),
    )
    _assert_catalog_matches_reference(scenario)
    # Interning: UGs of the same AS share one frozenset object.
    by_asn = {}
    for ug in scenario.user_groups:
        ids = scenario.catalog.ingress_ids(ug)
        if ug.asn in by_asn:
            assert by_asn[ug.asn] is ids
        by_asn[ug.asn] = ids


def test_catalog_handles_out_of_graph_direct_peer(micro_deployment) -> None:
    # A peering whose peer ASN is not in the AS graph must still count as a
    # direct (rule 1) ingress for UGs of that ASN — and nothing else.
    from repro.topology.asn import ASRole, AutonomousSystem, Relationship
    from repro.topology.builder import Topology, TopologyConfig as TC
    from repro.topology.graph import ASGraph
    from repro.usergroups.usergroup import UserGroup

    graph = ASGraph()
    graph.add_as(AutonomousSystem(asn=1, role=ASRole.CLOUD))
    pop = micro_deployment.pops[0]
    foreign = micro_deployment.add_peering(pop, 999, Relationship.PEER)
    topology = Topology(
        config=TC(seed=0, n_pops=2),
        graph=graph,
        deployment=micro_deployment,
        tier1_asns=[],
        transit_asns=[],
        regional_asns=[],
        stub_asns=[],
    )
    metro = pop.metro
    ug_foreign = UserGroup(ug_id=0, asn=999, metro=metro, volume=0.5)
    ug_other = UserGroup(ug_id=1, asn=998, metro=metro, volume=0.5)
    catalog = IngressCatalog(topology, [ug_foreign, ug_other])
    transit_ids = {p.peering_id for p in micro_deployment.transit_peerings()}
    assert catalog.ingress_ids(ug_foreign) == transit_ids | {foreign.peering_id}
    assert catalog.ingress_ids(ug_other) == transit_ids
    for ug in (ug_foreign, ug_other):
        assert catalog.ingress_ids(ug) == frozenset(
            p.peering_id for p in policy_compliant_peerings(ug, topology)
        )


# ---------------------------------------------------------------------------
# the real thing (slow tier)
# ---------------------------------------------------------------------------

#: Peak-RSS budget for building + solving mega.  Measured 1.53 GiB peak on
#: a 2-core, 7 GB x86-64 box: the slot store holds the 27.0M compliant
#: (UG, peering) slots in 4 x 8 bytes each (row, latency, distance, CSR
#: position; 0.86 GB) and the world and scan state make up the rest.  The
#: headroom guards against layout regressions such as a dense UG x peering
#: array coming back (one float64 pair of them alone is 3.2 GB).
MEGA_PEAK_RSS_BYTES = 2 * 1024**3


@pytest.mark.slow
def test_mega_smoke_builds_and_solves_within_memory_budget() -> None:
    scenario = mega_scenario()
    assert len(scenario.deployment.pops) == MEGA_N_POPS >= 500
    assert len(scenario.user_groups) >= 100_000
    assert len(scenario.deployment.peerings) >= 1_500

    from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator

    orch = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=2))
    config = orch.solve()
    evaluator = orch.evaluator
    assert len(evaluator.store) == sum(
        len(scenario.catalog.ingress_ids(ug)) for ug in scenario.user_groups
    )
    assert config.prefix_count <= 2
    assert config.pair_count > 0

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert peak <= MEGA_PEAK_RSS_BYTES, f"peak RSS {peak / 1e9:.2f} GB over budget"
