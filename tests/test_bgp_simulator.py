"""BGP propagation over the AS graph: policy, reachability, determinism."""

import pytest

from repro.bgp.simulator import BGPSimulator
from repro.topology.asn import Relationship
from repro.topology.graph import transit_path_exists

PREFIX = "184.164.224.0/24"


@pytest.fixture()
def sim(micro_graph):
    return BGPSimulator(micro_graph, origin_asn=1, tie_break_seed=0)


class TestPropagation:
    def test_origin_must_exist(self, micro_graph):
        with pytest.raises(KeyError):
            BGPSimulator(micro_graph, origin_asn=999)

    def test_announce_to_non_neighbor_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.propagate(PREFIX, [30])  # S1 is not a cloud neighbor

    def test_transit_announcement_reaches_everyone(self, sim, micro_graph):
        # T1 (AS 10) is the cloud's transit; customer routes go everywhere.
        routes = sim.propagate(PREFIX, [10])
        for asn in micro_graph:
            if asn == 1:
                continue
            assert asn in routes, f"AS{asn} should hear a transit announcement"

    def test_peer_announcement_reaches_only_cone(self, sim, micro_graph):
        # P3 (AS 22) peers with the cloud; its route reaches only its cone.
        routes = sim.propagate(PREFIX, [22])
        assert set(routes) == set(micro_graph.customer_cone(22))

    def test_paths_end_at_origin(self, sim):
        routes = sim.propagate(PREFIX, [10, 22])
        for asn, r in routes.items():
            assert r.origin_asn == 1
            assert asn not in r.as_path  # holder not on its own path

    def test_customer_route_preferred_over_provider(self, sim):
        # S2 (31) can reach the prefix via provider chain (21->10) or via its
        # other provider 22, which peers directly with the cloud; both are
        # provider routes for 31, but path via 22 is shorter.
        routes = sim.propagate(PREFIX, [10, 22])
        assert routes[31].as_path == (22, 1)

    def test_direct_peer_uses_direct_route(self, sim):
        routes = sim.propagate(PREFIX, [10, 22])
        assert routes[22].as_path == (1,)
        assert routes[22].relationship is Relationship.PEER

    def test_no_valley_paths(self, sim, micro_graph):
        """Every installed path must be valley-free (policy compliance)."""
        routes = sim.propagate(PREFIX, [10, 22])
        for asn, r in routes.items():
            hops = (asn,) + r.as_path
            # Verify each adjacent pair is connected and the path shape is
            # up*(peer)?down* when read from the holder to the origin.
            descended = False
            for a, b in zip(hops, hops[1:]):
                rel = micro_graph.relationship(a, b)
                assert rel is not None, f"no link {a}->{b}"
                if rel is Relationship.PROVIDER:
                    assert not descended, f"valley in path {hops}"
                else:
                    descended = True

    def test_deterministic_across_instances(self, micro_graph):
        a = BGPSimulator(micro_graph, 1, tie_break_seed=42)
        b = BGPSimulator(micro_graph, 1, tie_break_seed=42)
        ra = a.propagate(PREFIX, [10, 22])
        rb = b.propagate(PREFIX, [10, 22])
        assert {k: v.as_path for k, v in ra.items()} == {
            k: v.as_path for k, v in rb.items()
        }

    def test_duplicate_targets_deduplicated(self, sim):
        assert {
            k: v.as_path for k, v in sim.propagate(PREFIX, [10, 10, 22]).items()
        } == {k: v.as_path for k, v in sim.propagate(PREFIX, [10, 22]).items()}


class TestQueries:
    def test_reachable_ases(self, sim, micro_graph):
        reachable = frozenset(sim.propagate(PREFIX, [22]))
        assert reachable == frozenset(micro_graph.customer_cone(22))

    def test_as_path_to_origin(self, sim):
        routes = sim.propagate(PREFIX, [10])
        assert routes[30].as_path == (20, 10, 1)
        assert 99999 not in routes


class TestAgainstOracle:
    def test_reachability_matches_valley_free_oracle(self, scenario):
        """On a generated world: an AS hears an announcement to peer P iff a
        valley-free path from the AS to P exists (modulo the direct cloud
        link, which the oracle would route through)."""
        graph = scenario.graph
        sim = BGPSimulator(graph, origin_asn=1, tie_break_seed=0)
        deployment = scenario.deployment
        # Pick a non-transit peer with a modest cone.
        peers = [
            p.peer_asn
            for p in deployment.peerings
            if not p.is_transit and p.peer_asn != 1
        ]
        target = peers[0]
        routes = sim.propagate(PREFIX, [target])
        for asn in list(graph)[:80]:
            if asn == 1:
                continue
            expected = asn in graph.customer_cone(target)
            assert (asn in routes) == expected, f"AS{asn} vs cone of AS{target}"
