"""Cloud deployment: PoPs, peerings, prefix pool."""

import pytest

from repro.topology.asn import Relationship
from repro.topology.cloud import CloudDeployment, PrefixPool
from repro.topology.geo import metro_by_name


@pytest.fixture()
def deployment():
    d = CloudDeployment(name="test")
    pop_a = d.add_pop("pop-a", metro_by_name("new-york"))
    pop_b = d.add_pop("pop-b", metro_by_name("tokyo"))
    d.add_peering(pop_a, 100, Relationship.PROVIDER)
    d.add_peering(pop_a, 200, Relationship.PEER)
    d.add_peering(pop_b, 100, Relationship.PROVIDER)
    return d


class TestDeployment:
    def test_counts(self, deployment):
        assert len(deployment) == 3
        assert len(deployment.pops) == 2
        assert deployment.peer_asns() == [100, 200]

    def test_duplicate_pop_rejected(self, deployment):
        with pytest.raises(ValueError):
            deployment.add_pop("pop-a", metro_by_name("london"))

    def test_duplicate_peering_rejected(self, deployment):
        with pytest.raises(ValueError):
            deployment.add_peering(deployment.pop("pop-a"), 100, Relationship.PEER)

    def test_customer_relationship_rejected(self, deployment):
        with pytest.raises(ValueError):
            deployment.add_peering(
                deployment.pop("pop-b"), 300, Relationship.CUSTOMER
            )

    def test_peering_to_foreign_pop_rejected(self, deployment):
        other = CloudDeployment(name="other")
        foreign = other.add_pop("pop-x", metro_by_name("paris"))
        with pytest.raises(ValueError):
            deployment.add_peering(foreign, 300, Relationship.PEER)

    def test_peerings_at(self, deployment):
        at_a = deployment.peerings_at(deployment.pop("pop-a"))
        assert {p.peer_asn for p in at_a} == {100, 200}

    def test_peerings_with(self, deployment):
        with_100 = deployment.peerings_with(100)
        assert {p.pop.name for p in with_100} == {"pop-a", "pop-b"}

    def test_transit_peerings(self, deployment):
        transit = deployment.transit_peerings()
        assert all(p.is_transit for p in transit)
        assert len(transit) == 2

    def test_direct_peering_lookup(self, deployment):
        assert deployment.has_direct_peering_with(200)
        assert not deployment.has_direct_peering_with(999)

    def test_peering_ids_unique_and_resolvable(self, deployment):
        ids = [p.peering_id for p in deployment]
        assert len(ids) == len(set(ids))
        for pid in ids:
            assert deployment.peering(pid).peering_id == pid
        with pytest.raises(KeyError):
            deployment.peering(10_000)

    def test_unknown_pop_raises(self, deployment):
        with pytest.raises(KeyError):
            deployment.pop("nowhere")

    def test_nearest_pop(self, deployment):
        osaka = metro_by_name("osaka").location
        assert deployment.nearest_pop(osaka).name == "pop-b"

    def test_nearest_pop_empty_raises(self):
        with pytest.raises(ValueError):
            CloudDeployment().nearest_pop(metro_by_name("paris").location)

    def test_describe_mentions_counts(self, deployment):
        text = deployment.describe()
        assert "2 PoPs" in text and "3 peerings" in text

    def test_pop_distance(self, deployment):
        a, b = deployment.pop("pop-a"), deployment.pop("pop-b")
        assert a.distance_km(b) > 9000  # NYC-Tokyo


class TestPrefixPool:
    def test_allocates_distinct_slash24s(self):
        pool = PrefixPool("10.0.0.0/22")
        prefixes = [pool.allocate() for _ in range(4)]
        assert len(set(prefixes)) == 4
        assert all(p.endswith("/24") for p in prefixes)

    def test_capacity_enforced(self):
        pool = PrefixPool("10.0.0.0/23")
        assert pool.capacity == 2
        pool.allocate()
        pool.allocate()
        with pytest.raises(RuntimeError):
            pool.allocate()

    def test_reset(self):
        pool = PrefixPool("10.0.0.0/23")
        first = pool.allocate()
        pool.reset()
        assert pool.allocate() == first
        assert pool.allocated == 1

    def test_supernet_smaller_than_24_rejected(self):
        with pytest.raises(ValueError):
            PrefixPool("10.0.0.0/30")
