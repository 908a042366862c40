"""Synthetic topology generator: determinism, structure, config validation."""

import pytest

from repro.topology.asn import ASRole
from repro.topology.builder import CLOUD_ASN, TopologyConfig, build_topology


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
