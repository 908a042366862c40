"""Scenario assembly and the top-level package surface."""

import pytest

import repro
from repro.scenario import azure_scenario, build_scenario, prototype_scenario, tiny_scenario
from repro.topology.builder import TopologyConfig
from repro.usergroups.generation import UserGroupConfig


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestPresets:
    def test_tiny_preset(self):
        s = tiny_scenario(seed=1, n_ugs=25)
        assert len(s.user_groups) == 25
        assert len(s.deployment.pops) == 6

    def test_prototype_preset_scale(self):
        s = prototype_scenario(seed=1, n_ugs=50)
        # Paper prototype: 25 Vultr PoPs.
        assert len(s.deployment.pops) == 25
        assert len(s.deployment) > 100  # hundreds of ingresses

    def test_azure_preset_larger(self):
        azure = azure_scenario(seed=1, n_ugs=50)
        proto = prototype_scenario(seed=1, n_ugs=50)
        assert len(azure.deployment) > len(proto.deployment)


class TestScenarioInvariants:
    def test_anycast_cache_consistent(self, scenario):
        ug = scenario.user_groups[0]
        assert scenario.anycast_latency_ms(ug) == scenario.anycast_latency_ms(ug)

    def test_anycast_latencies_cover_all_ugs(self, scenario):
        latencies = scenario.anycast_latencies()
        assert set(latencies) == {ug.ug_id for ug in scenario.user_groups}
        assert all(v > 0 for v in latencies.values())

    def test_best_possible_below_anycast(self, scenario):
        for ug in scenario.user_groups:
            assert scenario.best_possible_latency_ms(ug) <= scenario.anycast_latency_ms(ug) + 1e-9

    def test_total_possible_benefit_monotone_with_inflation(self):
        """Worlds with more hidden inflation leave more on the table."""
        from repro.measurement.latency_model import LatencyModelConfig

        base_cfg = dict(
            topology_config=TopologyConfig(
                seed=2, n_pops=6, n_tier1=2, n_transit=4, n_regional=12, n_stub=50
            ),
            ug_config=UserGroupConfig(seed=3, n_ugs=50),
        )
        calm = build_scenario(
            "calm",
            latency_config=LatencyModelConfig(seed=2, inflation_prob_transit=0.05, inflation_prob_peer=0.02),
            **base_cfg,
        )
        stormy = build_scenario(
            "stormy",
            latency_config=LatencyModelConfig(seed=2, inflation_prob_transit=0.5, inflation_prob_peer=0.3),
            **base_cfg,
        )
        assert stormy.total_possible_benefit() > calm.total_possible_benefit()

    def test_day_variation_in_total_possible(self, scenario):
        base = scenario.total_possible_benefit(day=0)
        later = scenario.total_possible_benefit(day=5)
        assert later != base  # day dynamics shift the landscape


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        from repro.experiments import ALL_EXPERIMENTS

        expected = {
            "ablations", "enterprise",
            "chaos", "communities", "controller", "hotpotato",
            "fig3", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "fig9a", "fig9b",
            "fig10", "fig11a", "fig11b", "fig12", "fig14", "fig15a", "fig15b",
            "ext_congestion", "ext_egress", "ext_failover_sweep", "ext_ipv6", "ext_multipath",
            "optimality", "soak",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_cli_rejects_unknown(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", "not-an-experiment"])
        assert exc.value.code == 2

    def test_cli_runs_cheap_experiment(self, capsys):
        from repro.cli import main

        assert main(["run", "fig10"]) == 0
        output = capsys.readouterr().out
        assert "fig10" in output and "PAINTER downtime" in output
