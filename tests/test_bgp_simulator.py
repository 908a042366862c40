"""BGP propagation over the AS graph: policy, reachability, determinism."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.route import Route, better_route, may_export
from repro.bgp.simulator import BGPSimulator
from repro.topology.asn import ASRole, AutonomousSystem, Relationship
from repro.topology.graph import ASGraph, transit_path_exists

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


    def test_follows_graph_mutation(self, sim, micro_graph):
        # S1 (AS 30) is outside P3's cone until P3 sells it transit.
        assert 30 not in sim.propagate(PREFIX, [22])
        micro_graph.add_provider_customer(22, 30)
        routes = sim.propagate(PREFIX, [22])
        assert routes[30].as_path == (22, 1)
        assert routes[30].relationship is Relationship.PROVIDER

    def test_keeps_a_route_its_next_hop_replaced(self):
        """No implicit withdrawal: a route whose sender later switched to a
        better one that the holder ranks worse stays installed.

        The cloud (AS 1) announces to its two providers, 2 and 12.  AS 10
        first hears 2's route, a provider route of length 2, and exports
        it to its customer 20.  Then 10 hears the customer route
        (11, 12, 1) climbing from below and prefers it.  20 is offered the
        longer provider route (10, 11, 12, 1), ranks it below what it
        holds, and keeps (10, 2, 1), a path 10 no longer uses.  Real BGP's
        update would replace 20's route; this pins the simulator's fixed
        point, which every golden was recorded with.
        """
        graph = ASGraph()
        for asn in (1, 2, 10, 11, 12, 20):
            graph.add_as(AutonomousSystem(asn=asn, role=ASRole.STUB))
        for provider, customer in [(2, 1), (12, 1), (2, 10), (10, 11), (11, 12), (10, 20)]:
            graph.add_provider_customer(provider, customer)
        routes = BGPSimulator(graph, origin_asn=1).propagate(PREFIX, [2, 12])
        assert routes[10].as_path == (11, 12, 1)
        assert routes[10].relationship is Relationship.CUSTOMER
        assert routes[20].as_path == (10, 2, 1)
        assert routes[20].as_path[1:] != routes[10].as_path


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


# -- differential oracle -------------------------------------------------------
#
# ``_reference_propagate`` / ``_reference_install`` are the simulator's
# original per-candidate implementation, kept verbatim (``self`` is the
# simulator whose graph, origin and hidden tie-breaks they read).  The
# compiled ``propagate`` must return a dict equal to theirs, in the same
# insertion order.


def _reference_propagate(self, prefix, announce_to, prepend=None):
    targets = list(dict.fromkeys(announce_to))
    origin_neighbors = self._graph.neighbors(self._origin)
    for asn in targets:
        if asn not in origin_neighbors:
            raise ValueError(f"AS{asn} is not a neighbor of origin AS{self._origin}")
    prepend = prepend or {}

    best = {}
    work = deque()

    for asn in targets:
        rel = self._graph.relationship(asn, self._origin)
        assert rel is not None
        route = Route(
            prefix=prefix,
            as_path=(self._origin,),
            relationship=rel,
            prepend=prepend.get(asn, 0),
        )
        if _reference_install(self, best, asn, route):
            work.append(asn)

    while work:
        asn = work.popleft()
        route = best.get(asn)
        if route is None:
            continue
        rel_to_source = route.relationship
        for neighbor, rel_of_neighbor in self._graph.neighbors(asn).items():
            if neighbor == self._origin:
                continue
            if not may_export(rel_to_source, rel_of_neighbor):
                continue
            if route.contains_asn(neighbor):
                continue
            neighbor_rel = self._graph.relationship(neighbor, asn)
            assert neighbor_rel is not None
            candidate = route.extend_through(asn, neighbor_rel)
            if _reference_install(self, best, neighbor, candidate):
                work.append(neighbor)
    return best


def _reference_install(self, best, asn, candidate):
    current = best.get(asn)
    cand_tie = self._tie(asn, candidate.learned_from)
    cur_tie = self._tie(asn, current.learned_from) if current is not None else 0.0
    if better_route(candidate, cand_tie, current, cur_tie):
        best[asn] = candidate
        return True
    return False


def _assert_same(sim, announce_to, prepend=None):
    got = sim.propagate(PREFIX, announce_to, prepend=prepend)
    want = _reference_propagate(sim, PREFIX, announce_to, prepend=prepend)
    assert got == want
    assert list(got) == list(want)


@st.composite
def gao_rexford_worlds(draw):
    """A random valley-free economy: provider->customer links only from a
    lower to a higher index (so no provider cycle), peer links between
    otherwise unlinked pairs, and an origin with at least one neighbor."""
    n = draw(st.integers(min_value=2, max_value=12))
    graph = ASGraph()
    for asn in range(1, n + 1):
        graph.add_as(AutonomousSystem(asn=asn, role=ASRole.STUB))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    kinds = draw(st.lists(st.sampled_from("-cp"), min_size=len(pairs), max_size=len(pairs)))
    for (a, b), kind in zip(pairs, kinds):
        if kind == "c":
            graph.add_provider_customer(a, b)
        elif kind == "p":
            graph.add_peering_link(a, b)
    linked = [asn for asn in range(1, n + 1) if graph.degree(asn)]
    if not linked:
        graph.add_provider_customer(1, 2)
        linked = [1, 2]
    origin = draw(st.sampled_from(linked))
    neighbors = sorted(graph.neighbors(origin))
    announce = draw(st.lists(st.sampled_from(neighbors), min_size=0, max_size=2 * len(neighbors)))
    prepend = draw(
        st.none()
        | st.dictionaries(st.sampled_from(neighbors), st.integers(min_value=0, max_value=3))
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return graph, origin, announce, prepend, seed


class TestAgainstReferencePropagation:
    @settings(max_examples=300)
    @given(gao_rexford_worlds())
    def test_random_worlds(self, world):
        graph, origin, announce, prepend, seed = world
        sim = BGPSimulator(graph, origin_asn=origin, tie_break_seed=seed)
        _assert_same(sim, announce, prepend)
        # A second announcement on the same simulator reuses its state.
        _assert_same(sim, list(reversed(announce)))

    # azure-1200 has azure-120's AS graph; only the UG population differs.
    @pytest.mark.parametrize(
        "name", ["tiny", "prototype", "azure-120", "claims-prototype", "claims-azure"]
    )
    def test_golden_worlds(self, name):
        """The anycast announcement and 50 random peer sets per world."""
        from tests.test_golden_worlds import WORLDS

        scenario = WORLDS[name](0)
        sim = BGPSimulator(scenario.graph, origin_asn=1, tie_break_seed=0)
        peer_asns = sorted({p.peer_asn for p in scenario.deployment.peerings})
        _assert_same(sim, peer_asns)
        rng = random.Random(name)
        for _ in range(50):
            chosen = rng.sample(peer_asns, rng.randint(1, len(peer_asns)))
            _assert_same(sim, chosen)
