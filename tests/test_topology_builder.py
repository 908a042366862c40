"""Synthetic topology generator: determinism, structure, config validation."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.asn import ASRole
from repro.topology.builder import CLOUD_ASN, TopologyConfig, _spread_metros, build_topology
from repro.topology.geo import WORLD_METROS, GeoPoint, Metro, haversine_km, synthetic_metros


@pytest.fixture(scope="module")
def topology():
    return build_topology(TopologyConfig(seed=5, n_pops=8, n_tier1=3, n_transit=5, n_regional=15, n_stub=60))


class TestConfigValidation:
    def test_too_few_pops(self):
        with pytest.raises(ValueError):
            TopologyConfig(n_pops=1)

    def test_too_many_pops(self):
        with pytest.raises(ValueError):
            TopologyConfig(n_pops=10_000)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            TopologyConfig(transit_provider_fraction=1.5)

    def test_need_tier1(self):
        with pytest.raises(ValueError):
            TopologyConfig(n_tier1=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("regional_peering_prob", math.nan),
            ("regional_peering_prob", -0.1),
            ("regional_peering_prob", 1.01),
            ("stub_peering_prob", 1.5),
            ("stub_peering_prob", math.nan),
            ("stub_multihoming_mean", 0.0),
            ("stub_multihoming_mean", -1.0),
            ("stub_multihoming_mean", math.inf),
            ("stub_multihoming_mean", math.nan),
            ("n_regional", -1),
            ("n_stub", -3),
        ],
    )
    def test_out_of_range_field_fails_closed(self, field, value):
        with pytest.raises(ValueError, match=field):
            TopologyConfig(**{field: value})

    def test_range_edges_build(self):
        topology = build_topology(
            TopologyConfig(
                n_pops=4,
                n_tier1=1,
                n_transit=2,
                n_regional=0,
                n_stub=0,
                regional_peering_prob=0.0,
                stub_peering_prob=1.0,
            )
        )
        assert topology.regional_asns == topology.stub_asns == []


class TestStructure:
    def test_counts_match_config(self, topology):
        cfg = topology.config
        assert len(topology.tier1_asns) == cfg.n_tier1
        assert len(topology.transit_asns) == cfg.n_transit
        assert len(topology.regional_asns) == cfg.n_regional
        assert len(topology.stub_asns) == cfg.n_stub
        assert len(topology.deployment.pops) == cfg.n_pops

    def test_cloud_asn_registered(self, topology):
        assert topology.graph.get_as(CLOUD_ASN).role is ASRole.CLOUD

    def test_graph_is_valid(self, topology):
        topology.graph.validate()

    def test_stubs_have_providers(self, topology):
        for asn in topology.stub_asns:
            assert topology.graph.providers(asn), f"stub AS{asn} has no provider"

    def test_stubs_have_no_customers(self, topology):
        for asn in topology.stub_asns:
            assert not topology.graph.customers(asn)

    def test_cloud_has_transit_providers(self, topology):
        providers = topology.graph.providers(CLOUD_ASN)
        assert providers
        transit_peers = {p.peer_asn for p in topology.deployment.transit_peerings()}
        assert set(providers) <= transit_peers

    def test_big_ases_present_at_many_pops(self, topology):
        for asn in topology.tier1_asns:
            assert len(topology.deployment.peerings_with(asn)) >= 2

    def test_every_peer_asn_in_graph(self, topology):
        for asn in topology.deployment.peer_asns():
            assert asn in topology.graph

    def test_edge_asns(self, topology):
        edges = set(topology.edge_asns())
        assert edges == set(topology.stub_asns) | set(topology.regional_asns)

    def test_pop_metros_distinct(self, topology):
        metros = [pop.metro.name for pop in topology.deployment.pops]
        assert len(metros) == len(set(metros))


class TestDeterminism:
    def test_same_seed_same_world(self):
        cfg = TopologyConfig(seed=11, n_pops=6, n_tier1=2, n_transit=4, n_regional=10, n_stub=30)
        a, b = build_topology(cfg), build_topology(cfg)
        assert a.tier1_asns == b.tier1_asns
        assert a.stub_asns == b.stub_asns
        assert [p.name for p in a.deployment.pops] == [p.name for p in b.deployment.pops]
        assert [
            (p.peering_id, p.peer_asn, p.pop.name) for p in a.deployment.peerings
        ] == [(p.peering_id, p.peer_asn, p.pop.name) for p in b.deployment.peerings]
        assert a.graph.edge_count() == b.graph.edge_count()

    def test_different_seed_different_world(self):
        base = dict(n_pops=6, n_tier1=2, n_transit=4, n_regional=10, n_stub=30)
        a = build_topology(TopologyConfig(seed=1, **base))
        b = build_topology(TopologyConfig(seed=2, **base))
        assert [
            (p.peer_asn, p.pop.name) for p in a.deployment.peerings
        ] != [(p.peer_asn, p.pop.name) for p in b.deployment.peerings]


def _reference_spread_metros(rng, count, pool):
    """The quadratic greedy k-center the builder used to run: each pick
    measures every remaining metro against every chosen one."""
    metros = list(pool)
    if count == len(metros):
        return metros
    chosen = [rng.choice(metros)]
    remaining = [m for m in metros if m is not chosen[0]]
    while len(chosen) < count and remaining:
        best = max(
            remaining,
            key=lambda m: min(haversine_km(m.location, c.location) for c in chosen),
        )
        chosen.append(best)
        remaining.remove(best)
    return chosen


def _grid_metros(points):
    # Coordinates from a coarse grid, repeats allowed under distinct names:
    # equal distances (and so k-center ties) are the rule, not the exception.
    return tuple(
        Metro(name=f"grid-{i}", location=GeoPoint(lat, lon), region="grid")
        for i, (lat, lon) in enumerate(points)
    )


_GRID = st.tuples(
    st.sampled_from([-60.0, -30.0, 0.0, 30.0, 60.0]),
    st.sampled_from([-120.0, -60.0, 0.0, 60.0, 120.0, 180.0]),
)

_POOLS = st.one_of(
    st.lists(st.sampled_from(WORLD_METROS), min_size=2, max_size=40, unique=True).map(tuple),
    st.builds(synthetic_metros, st.integers(2, 40), st.integers(0, 50)),
    st.lists(_GRID, min_size=2, max_size=30).map(_grid_metros),
)


def _assert_matches_reference(pool, count, seed):
    rng, reference_rng = random.Random(seed), random.Random(seed)
    got = _spread_metros(rng, count, pool)
    want = _reference_spread_metros(reference_rng, count, pool)
    assert [m.name for m in got] == [m.name for m in want]
    assert all(a is b for a, b in zip(got, want))
    assert rng.getstate() == reference_rng.getstate()  # the same draws consumed


class TestSpreadMetros:
    @given(pool=_POOLS, data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_quadratic_reference(self, pool, data, seed):
        count = data.draw(
            st.one_of(st.just(len(pool) - 1), st.integers(1, len(pool))), label="count"
        )
        _assert_matches_reference(pool, count, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_all_but_one_metro(self, seed):
        for pool in (WORLD_METROS, synthetic_metros(30, seed=seed)):
            _assert_matches_reference(pool, len(pool) - 1, seed)

    def test_ties_go_to_the_first_in_pool_order(self):
        # Two copies of every point: each pick's farthest distance is shared
        # by both copies, and the earlier one must win, as with max().
        pool = _grid_metros([(0.0, lon) for lon in (-120.0, 0.0, 120.0)] * 2)
        for seed in range(6):
            _assert_matches_reference(pool, 5, seed)


def test_haversine_is_symmetric_bit_for_bit():
    # The builder memoizes one distance per unordered metro pair.
    pool = WORLD_METROS + synthetic_metros(60, seed=0)
    for a, b in itertools.combinations(pool, 2):
        assert haversine_km(a.location, b.location) == haversine_km(b.location, a.location)
