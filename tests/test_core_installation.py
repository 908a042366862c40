"""Installation: binding configurations to prefixes and TM-PoPs."""

import pytest

from repro.core.installation import DEFAULT_SERVICE, install_configuration
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.topology.cloud import PrefixPool


@pytest.fixture(scope="module")
def deployed():
    from repro.scenario import tiny_scenario

    scenario = tiny_scenario(seed=3)
    config = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=4)).solve()
    installation = install_configuration(scenario, config)
    return scenario, config, installation


class TestInstallation:
    def test_every_prefix_bound_to_distinct_cidr(self, deployed):
        _scenario, config, installation = deployed
        cidrs = [p.cidr for p in installation.prefixes] + [installation.anycast_cidr]
        assert len(cidrs) == len(set(cidrs))
        assert len(installation.prefixes) == config.prefix_count

    def test_announcement_plan_matches_config(self, deployed):
        scenario, config, installation = deployed
        plan = dict(installation.announcements())
        # Anycast goes everywhere.
        assert plan[installation.anycast_cidr] == frozenset(
            p.peering_id for p in scenario.deployment.peerings
        )
        for installed in installation.prefixes:
            assert plan[installed.cidr] == config.peerings_for(installed.prefix_index)

    def test_tm_pops_created_for_all_pops(self, deployed):
        scenario, _config, installation = deployed
        assert set(installation.tm_pops) == {p.name for p in scenario.deployment.pops}
        for tm_pop in installation.tm_pops.values():
            assert tm_pop.serves(DEFAULT_SERVICE)

    def test_prefixes_attached_where_advertised(self, deployed):
        scenario, _config, installation = deployed
        for installed in installation.prefixes:
            for pop_name, tm_pop in installation.tm_pops.items():
                attached = installed.cidr in tm_pop.ingress_prefixes
                assert attached == (pop_name in installed.pop_names)

    def test_anycast_attached_everywhere(self, deployed):
        _scenario, _config, installation = deployed
        for tm_pop in installation.tm_pops.values():
            assert installation.anycast_cidr in tm_pop.ingress_prefixes

    def test_directory_resolves_service(self, deployed):
        _scenario, _config, installation = deployed
        prefixes = installation.directory.prefixes_for_service(DEFAULT_SERVICE)
        assert installation.anycast_cidr in prefixes
        for installed in installation.prefixes:
            assert installed.cidr in prefixes

    def test_pool_exhaustion_detected(self, deployed):
        scenario, config, _installation = deployed
        tiny_pool = PrefixPool("10.0.0.0/23")  # two /24s only
        if config.prefix_count + 1 <= 2:
            pytest.skip("config small enough to fit the tiny pool")
        with pytest.raises(RuntimeError):
            install_configuration(scenario, config, pool=tiny_pool)

    def test_service_placement_respected(self, deployed):
        scenario, config, _installation = deployed
        some_pop = scenario.deployment.pops[0].name
        installation = install_configuration(
            scenario,
            config,
            service_placement={"sql": [some_pop]},
        )
        for pop_name, tm_pop in installation.tm_pops.items():
            assert tm_pop.serves("sql") == (pop_name == some_pop)


class TestEndToEndWithTrafficManager:
    def test_tm_edge_uses_installed_prefixes(self, deployed):
        from repro.traffic_manager.tm_edge import TMEdge

        _scenario, _config, installation = deployed
        edge = TMEdge(edge_ip="203.0.113.9", directory=installation.directory)
        available = edge.resolve_service(DEFAULT_SERVICE)
        assert installation.anycast_cidr in available
        assert len(available) >= 2
        rtts = {cidr: 20.0 + i for i, cidr in enumerate(sorted(available))}
        selected = edge.record_measurements(DEFAULT_SERVICE, rtts)
        assert selected == sorted(available)[0]
