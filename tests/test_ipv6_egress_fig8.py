"""IPv6 feasibility (§2.4), egress coexistence (§6), and Fig. 8."""

import pytest

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.egress.coexistence import (
    DirectionalModel,
    EgressOptimizer,
    evaluate_coexistence,
)
from repro.topology.ipv6 import (
    DualStackCatalog,
    DualStackConfig,
    IPV6_FIB_COST_FACTOR,
    analyze_ipv6_feasibility,
)


class TestIpv6:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DualStackConfig(transit_v6_prob=1.5)

    def test_dual_stack_deterministic(self, scenario):
        a = DualStackCatalog(scenario.deployment, DualStackConfig(seed=4))
        b = DualStackCatalog(scenario.deployment, DualStackConfig(seed=4))
        assert a.v6_peering_ids() == b.v6_peering_ids()

    def test_v6_fraction_between_probs(self, small_scenario):
        catalog = DualStackCatalog(
            small_scenario.deployment, DualStackConfig(seed=1)
        )
        # Mixture of transit (0.85) and peer (0.55) probabilities.
        assert 0.4 <= catalog.v6_fraction() <= 0.95

    def test_feasibility_loses_paths(self, small_scenario):
        dual = DualStackCatalog(small_scenario.deployment, DualStackConfig(seed=1))
        feasibility = analyze_ipv6_feasibility(small_scenario.catalog, dual)
        assert 0.0 < feasibility.exposable_path_fraction < 1.0
        assert feasibility.fib_cost_factor == IPV6_FIB_COST_FACTOR

    def test_full_v6_exposes_everything(self, scenario):
        dual = DualStackCatalog(
            scenario.deployment,
            DualStackConfig(seed=1, transit_v6_prob=1.0, peer_v6_prob=1.0),
        )
        feasibility = analyze_ipv6_feasibility(scenario.catalog, dual)
        assert feasibility.exposable_path_fraction == pytest.approx(1.0)
        assert feasibility.v6_peering_fraction == pytest.approx(1.0)


class TestEgressCoexistence:
    @pytest.fixture(scope="class")
    def setup(self, scenario):
        orchestrator = PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=4)
        )
        orchestrator.learn(iterations=2)
        config = orchestrator.solve()
        return scenario, config

    def test_split_preserves_rtt(self, scenario):
        model = DirectionalModel(scenario, seed=1)
        ug = scenario.user_groups[0]
        for peering in scenario.deployment.peerings[:10]:
            split = model.split(ug, peering)
            rtt = scenario.latency_model.latency_ms(ug, peering)
            assert split.rtt_ms == pytest.approx(rtt)
            assert split.ingress_ms > 0 and split.egress_ms > 0

    def test_asymmetry_bounds(self, scenario):
        with pytest.raises(ValueError):
            DirectionalModel(scenario, asymmetry=0.6)

    def test_egress_optimizer_never_worse_than_default(self, scenario):
        model = DirectionalModel(scenario, seed=1)
        optimizer = EgressOptimizer(scenario, model)
        for ug in scenario.user_groups[:15]:
            assert optimizer.best_egress_ms(ug) <= optimizer.default_egress_ms(ug) + 1e-9

    def test_combinations_ordered(self, setup):
        scenario, config = setup
        result = evaluate_coexistence(scenario, config)
        # Each system alone helps; both together is best.
        assert result.painter_only <= result.neither + 1e-9
        assert result.egress_only <= result.neither + 1e-9
        assert result.both <= min(result.painter_only, result.egress_only) + 1e-9

    def test_gains_approximately_additive(self, setup):
        """The §6 coexistence claim: the systems act independently."""
        scenario, config = setup
        result = evaluate_coexistence(scenario, config)
        assert result.painter_gain > 0
        assert result.egress_gain > 0
        assert 0.7 <= result.additivity <= 1.1


class TestFig8:
    def test_table_shape(self, scenario):
        from repro.experiments.fig8 import run_fig8

        result = run_fig8(scenario=scenario)
        mechanisms = result.column("mechanism")
        assert mechanisms == ["anycast", "dns", "bgp_tuning", "sdwan", "painter"]
        rows = {row[0]: row for row in result.rows}
        # PAINTER: most paths, RTT-scale failover, finest control.
        assert rows["painter"][3] >= rows["sdwan"][3]
        assert rows["painter"][4] < rows["dns"][4]
        assert rows["painter"][2] >= rows["bgp_tuning"][2]
