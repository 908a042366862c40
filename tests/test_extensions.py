"""Extension modules: cost accounting, load balancing, multipath, regional anycast."""

import math

import pytest

from repro.core.advertisement import AdvertisementConfig
from repro.core.baselines import regional_anycast
from repro.core.cost import (
    ConfigurationCost,
    configuration_cost,
    prefixes_saved_vs_one_per_peering,
)
from repro.traffic_manager.load_balancing import (
    DestinationLoad,
    LoadAwareSelector,
    effective_latency_ms,
)
from repro.traffic_manager.multipath import (
    MultipathConnection,
    Subflow,
    failover_comparison,
)


class TestCost:
    def test_basic_pricing(self):
        config = AdvertisementConfig.from_pairs([(0, 1), (0, 2), (1, 3)])
        cost = configuration_cost(config, price_per_prefix_usd=20_000)
        assert cost.prefixes == 3  # 2 unicast + anycast
        assert cost.announcements == 3
        assert cost.address_cost_usd == 60_000
        assert cost.fib_slots == 3 * 70_000

    def test_exclude_anycast(self):
        config = AdvertisementConfig.from_pairs([(0, 1)])
        cost = configuration_cost(config, include_anycast=False)
        assert cost.prefixes == 1

    def test_reuse_savings(self):
        config = AdvertisementConfig.from_pairs([(0, 1), (0, 2), (0, 3), (1, 4)])
        assert prefixes_saved_vs_one_per_peering(config) == 2

    def test_validation(self):
        config = AdvertisementConfig.from_pairs([(0, 1)])
        with pytest.raises(ValueError):
            configuration_cost(config, price_per_prefix_usd=-1)
        with pytest.raises(ValueError):
            configuration_cost(config, dfz_routers=0)

    def test_hypergiant_fraction(self):
        config = AdvertisementConfig.from_pairs([(i, i) for i in range(49)])
        cost = configuration_cost(config)
        assert cost.fraction_of_hypergiant_footprint == pytest.approx(0.1)


def greedy_spread(selector, n_flows):
    """Assign ``n_flows`` unit flows one at a time; per-destination counts."""
    counts = {}
    for _ in range(n_flows):
        chosen = selector.assign_flow()
        if chosen is None:
            break
        counts[chosen] = counts.get(chosen, 0) + 1
    return counts


class TestLoadBalancing:
    def test_effective_latency_shape(self):
        assert effective_latency_ms(10.0, 0.0) == 10.0
        assert effective_latency_ms(10.0, 0.5) == 20.0
        assert effective_latency_ms(10.0, 1.0) == math.inf
        assert effective_latency_ms(10.0, 0.9) > effective_latency_ms(10.0, 0.8)

    def test_destination_load_validation(self):
        with pytest.raises(ValueError):
            DestinationLoad(prefix="a", capacity=0.0)
        with pytest.raises(ValueError):
            DestinationLoad(prefix="a", capacity=1.0, load=-1.0)

    def test_flows_spill_to_second_path_under_load(self):
        selector = LoadAwareSelector()
        selector.add_destination("fast", capacity=10, base_rtt_ms=10.0)
        selector.add_destination("slow", capacity=100, base_rtt_ms=20.0)
        counts = greedy_spread(selector, n_flows=40)
        assert counts["fast"] >= 1
        assert counts["slow"] >= 1  # congestion pushed flows to the slow path
        assert max(selector.utilizations().values()) < 1.0

    def test_single_path_saturates_then_none(self):
        selector = LoadAwareSelector()
        selector.add_destination("only", capacity=3, base_rtt_ms=10.0)
        assert greedy_spread(selector, n_flows=10) == {"only": 3}
        assert selector.assign_flow() is None

    def test_duplicate_destination_rejected(self):
        selector = LoadAwareSelector()
        selector.add_destination("a", capacity=1, base_rtt_ms=1.0)
        with pytest.raises(ValueError):
            selector.add_destination("a", capacity=1, base_rtt_ms=1.0)

    def test_balanced_spread_across_equal_paths(self):
        selector = LoadAwareSelector()
        selector.add_destination("a", capacity=50, base_rtt_ms=10.0)
        selector.add_destination("b", capacity=50, base_rtt_ms=10.0)
        counts = greedy_spread(selector, n_flows=60)
        assert abs(counts["a"] - counts["b"]) <= 2


class TestMultipath:
    def _subflows(self):
        return [
            Subflow(prefix="p1", rtt_ms=20.0, capacity_mbps=50.0),
            Subflow(prefix="p2", rtt_ms=30.0, capacity_mbps=100.0),
            Subflow(prefix="p3", rtt_ms=80.0, capacity_mbps=40.0),
        ]

    def test_lowest_rtt_first_scheduling(self):
        connection = MultipathConnection(self._subflows())
        allocation = connection.schedule(120.0)
        assert allocation == {"p1": 50.0, "p2": 70.0}

    def test_capacity_limited_delivery(self):
        connection = MultipathConnection(self._subflows())
        assert connection.delivered_fraction(500.0) == pytest.approx(190.0 / 500.0)
        assert connection.delivered_fraction(100.0) == 1.0

    def test_failover_shifts_instantly(self):
        connection = MultipathConnection(self._subflows())
        degraded = connection.fail_subflow("p1")
        allocation = degraded.schedule(120.0)
        assert "p1" not in allocation
        assert sum(allocation.values()) == 120.0

    def test_failover_comparison_beats_single_path(self):
        multipath_ms, single_ms = failover_comparison(
            self._subflows(), failed_prefix="p1", demand_mbps=50.0,
            single_path_detection_ms=26.0,
        )
        assert multipath_ms <= single_ms + 30.0  # same order; typically lower
        assert multipath_ms == 30.0  # next-lowest subflow RTT

    def test_all_paths_dead_is_infinite(self):
        subflows = [Subflow(prefix="p1", rtt_ms=20.0, capacity_mbps=10.0)]
        multipath_ms, single_ms = failover_comparison(
            subflows, failed_prefix="p1", demand_mbps=1.0, single_path_detection_ms=26.0
        )
        assert math.isinf(multipath_ms)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultipathConnection([])
        with pytest.raises(ValueError):
            MultipathConnection(
                [Subflow("p", 10.0, 1.0), Subflow("p", 20.0, 1.0)]
            )
        connection = MultipathConnection(self._subflows())
        with pytest.raises(KeyError):
            connection.fail_subflow("ghost")
        with pytest.raises(ValueError):
            connection.schedule(-1.0)


class TestRegionalAnycast:
    def test_one_region_per_prefix(self, scenario):
        config = regional_anycast(scenario, budget=4)
        deployment = scenario.deployment
        for prefix in config.prefixes:
            regions = {
                deployment.peering(pid).pop.metro.region
                for pid in config.peerings_for(prefix)
            }
            assert len(regions) == 1

    def test_covers_all_region_peerings(self, scenario):
        config = regional_anycast(scenario, budget=10)
        deployment = scenario.deployment
        for prefix in config.prefixes:
            peerings = config.peerings_for(prefix)
            region = deployment.peering(next(iter(peerings))).pop.metro.region
            expected = {
                p.peering_id for p in deployment.peerings if p.pop.metro.region == region
            }
            assert peerings == expected

    def test_budget_validation(self, scenario):
        import pytest

        with pytest.raises(ValueError):
            regional_anycast(scenario, budget=0)
