"""Steering analyses: granularity, DNS steering, SD-WAN, resilience."""

import pytest

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.dns.resolvers import ResolverAssignment, ResolverConfig
from repro.steering.dns_steering import evaluate_dns_steering
from repro.steering.granularity import (
    BUCKET_LABELS,
    GRANULARITY_BUCKETS,
    GranularityAnalysis,
)
from repro.steering.resilience import ResilienceAnalysis, fraction_fully_avoidable
from repro.steering.sdwan import sdwan_view


@pytest.fixture(scope="module")
def world():
    from repro.scenario import tiny_scenario

    return tiny_scenario(seed=3)


@pytest.fixture(scope="module")
def resolvers(world):
    return ResolverAssignment(world, ResolverConfig(seed=2))


@pytest.fixture(scope="module")
def granularity(world, resolvers):
    return GranularityAnalysis(world, resolvers)


class TestGranularity:
    def test_bucket_definitions_cover_unit_interval(self):
        assert GRANULARITY_BUCKETS[0][0] == 0.0
        assert GRANULARITY_BUCKETS[-1][1] >= 1.0
        for (lo_a, hi_a), (lo_b, _hi_b) in zip(GRANULARITY_BUCKETS, GRANULARITY_BUCKETS[1:]):
            assert hi_a == lo_b
        assert len(BUCKET_LABELS) == len(GRANULARITY_BUCKETS)

    def test_pop_volumes_sum_to_total(self, world, granularity):
        total = sum(granularity.pop_volumes().values())
        assert total == pytest.approx(sum(ug.volume for ug in world.user_groups))

    def test_shares_sum_to_one(self, granularity):
        for pop_name in granularity.top_pops(3):
            for mechanism, result in granularity.analyze_pop(pop_name).items():
                assert sum(result.bucket_shares) == pytest.approx(1.0, abs=1e-6), mechanism

    def test_painter_is_finest(self, granularity):
        for mechanism, result in granularity.analyze_all().items():
            fine = result.share_finer_than(0.001)
            if mechanism == "painter":
                assert fine == pytest.approx(1.0, abs=1e-6)
            else:
                assert fine < 1.0

    def test_bgp_coarser_than_painter(self, granularity):
        results = granularity.analyze_all()
        assert results["bgp"].share_finer_than(0.01) < results["painter"].share_finer_than(0.01)

    def test_all_aggregate_consistent(self, granularity):
        aggregate = granularity.analyze_all()
        for result in aggregate.values():
            assert sum(result.bucket_shares) == pytest.approx(1.0, abs=1e-6)


class TestDnsSteering:
    @pytest.fixture(scope="class")
    def config(self, world):
        orchestrator = PainterOrchestrator(world, OrchestratorConfig(prefix_budget=4))
        return orchestrator.solve()

    def test_dns_never_beats_painter(self, world, config, resolvers):
        outcome = evaluate_dns_steering(world, config, resolvers)
        assert outcome.dns_benefit <= outcome.painter_benefit + 1e-9
        assert 0.0 <= outcome.dns_fraction_of_painter <= 1.0 + 1e-9

    def test_resolver_choices_are_valid_prefixes(self, world, config, resolvers):
        outcome = evaluate_dns_steering(world, config, resolvers)
        for choice in outcome.resolver_choices.values():
            assert choice is None or choice in config.prefixes


class TestSdwan:
    def test_path_count_matches_providers_plus_direct(self, world):
        graph = world.graph
        deployment = world.deployment
        for ug in world.user_groups[:25]:
            view = sdwan_view(world, ug)
            expected_max = len(graph.providers(ug.asn)) + (
                1 if deployment.has_direct_peering_with(ug.asn) else 0
            )
            assert view.path_count <= expected_max
            assert view.path_count >= 1

    def test_direct_peering_gives_empty_intermediates(self, world):
        for ug in world.user_groups:
            view = sdwan_view(world, ug)
            if view.has_direct_peering:
                assert () in view.paths
                return
        pytest.skip("no directly-peering UG in this seed")

    def test_isp_paths_start_with_isp(self, world):
        for ug in world.user_groups[:20]:
            view = sdwan_view(world, ug)
            for path in view.paths:
                if path:
                    assert path[0] in view.isp_asns


class TestResilience:
    @pytest.fixture(scope="class")
    def analysis(self, world):
        return ResilienceAnalysis(world)

    def test_painter_exposes_at_least_sdwan_pops_nearby(self, analysis, world):
        comparisons = analysis.compare_all()
        assert len(comparisons) == len(world.user_groups)
        # PAINTER exposes more paths than SD-WAN for the typical UG.
        median_diff = sorted(c.best_paths_difference for c in comparisons)[
            len(comparisons) // 2
        ]
        assert median_diff > 0

    def test_all_paths_at_least_best_paths(self, analysis, world):
        for ug in world.user_groups[:30]:
            view = analysis.painter_view(ug)
            assert view.all_paths >= view.best_paths

    def test_regional_pops_nonempty(self, analysis, world):
        regions = {ug.metro.region for ug in world.user_groups}
        for region in regions:
            assert analysis.regional_pops(region)

    def test_avoidance_fractions_valid(self, analysis, world):
        for result in analysis.avoidance_all():
            assert 0.0 <= result.painter_avoidable_fraction <= 1.0
            assert 0.0 <= result.sdwan_avoidable_fraction <= 1.0

    def test_painter_avoids_at_least_as_much(self, analysis):
        """PAINTER's alternates are a superset in power of SD-WAN's for
        most UGs; at the population level it must not avoid less."""
        results = analysis.avoidance_all()
        painter = fraction_fully_avoidable(results, painter=True)
        sdwan = fraction_fully_avoidable(results, painter=False)
        assert painter >= sdwan - 0.05

    def test_fraction_fully_avoidable_empty_raises(self):
        with pytest.raises(ValueError):
            fraction_fully_avoidable([], painter=True)


class TestPecanComparator:
    def test_config_confined_to_one_isp(self, world):
        from repro.steering.pecan import best_single_isp, pecan_config

        isp = best_single_isp(world)
        config = pecan_config(world, budget=6, isp_asn=isp)
        deployment = world.deployment
        asns = {deployment.peering(pid).peer_asn for _p, pid in config.pairs()}
        assert asns == {isp}
        # One peering per prefix.
        for prefix in config.prefixes:
            assert len(config.peerings_for(prefix)) == 1

    def test_painter_beats_pecan_at_same_budget(self, world):
        from repro.core.orchestrator import PainterOrchestrator
        from repro.steering.pecan import compare_pecan_to_painter

        budget = 4
        orchestrator = PainterOrchestrator(
            world, OrchestratorConfig(prefix_budget=budget)
        )
        result = orchestrator.learn(iterations=3)
        pecan, painter, isp = compare_pecan_to_painter(
            world, budget, result.final_config
        )
        # Confining exposure to a single ISP leaves benefit on the table.
        assert painter > pecan
        assert isp in {p.peer_asn for p in world.deployment.transit_peerings()}

    def test_budget_validation(self, world):
        from repro.steering.pecan import pecan_config

        import pytest as _pytest

        with _pytest.raises(ValueError):
            pecan_config(world, budget=0)


class TestRegionalPopsFallback:
    def test_ug_free_region_falls_back_to_nearest_pop(self, world):
        """A region hosting no UGs gets its geographically nearest PoP."""
        from repro.topology.geo import haversine_km, metros_in_region

        analysis = ResilienceAnalysis(world)
        region = "africa"
        assert all(ug.metro.region != region for ug in world.user_groups)
        anchors = [metro.location for metro in metros_in_region(region)]
        assert anchors, "world metros must cover the region"
        expected = min(
            world.deployment.pops,
            key=lambda pop: min(haversine_km(pop.location, a) for a in anchors),
        ).name
        assert analysis.regional_pops(region) == frozenset({expected})

    def test_fallback_is_cached(self, world):
        analysis = ResilienceAnalysis(world)
        first = analysis.regional_pops("africa")
        assert analysis.regional_pops("africa") is first
