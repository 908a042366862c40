"""Baseline advertisement strategies: structural invariants."""

import pytest

from repro.core.baselines import (
    BASELINE_STRATEGIES,
    one_per_peering,
    one_per_pop,
    one_per_pop_with_reuse,
    regional_transit,
)


class TestOnePerPop:
    def test_one_prefix_per_pop(self, scenario):
        budget = 3
        config = one_per_pop(scenario, budget)
        assert config.prefix_count == budget
        deployment = scenario.deployment
        for prefix in config.prefixes:
            pops = {
                deployment.peering(pid).pop.name for pid in config.peerings_for(prefix)
            }
            assert len(pops) == 1

    def test_full_pop_coverage_at_each_prefix(self, scenario):
        config = one_per_pop(scenario, 2)
        deployment = scenario.deployment
        for prefix in config.prefixes:
            peerings = config.peerings_for(prefix)
            pop_name = deployment.peering(next(iter(peerings))).pop.name
            at_pop = {p.peering_id for p in deployment.peerings_at(deployment.pop(pop_name))}
            assert peerings == at_pop

    def test_budget_validation(self, scenario):
        with pytest.raises(ValueError):
            one_per_pop(scenario, 0)


class TestOnePerPopWithReuse:
    def test_reuse_distance_respected(self, scenario):
        d_reuse = 3000.0
        config = one_per_pop_with_reuse(scenario, budget=3, d_reuse_km=d_reuse)
        deployment = scenario.deployment
        for prefix in config.prefixes:
            pops = {
                deployment.peering(pid).pop for pid in config.peerings_for(prefix)
            }
            pops = list(pops)
            for i, a in enumerate(pops):
                for b in pops[i + 1 :]:
                    assert a.distance_km(b) >= d_reuse

    def test_covers_at_least_as_many_pops_as_plain(self, scenario):
        deployment = scenario.deployment
        budget = 2
        plain = one_per_pop(scenario, budget)
        reuse = one_per_pop_with_reuse(scenario, budget)

        def covered(config):
            return {
                deployment.peering(pid).pop.name
                for prefix in config.prefixes
                for pid in config.peerings_for(prefix)
            }

        assert len(covered(reuse)) >= len(covered(plain))

    def test_budget_cap(self, scenario):
        config = one_per_pop_with_reuse(scenario, budget=1)
        assert config.prefix_count == 1


class TestOnePerPeering:
    def test_unique_prefix_per_peering(self, scenario):
        config = one_per_peering(scenario, budget=5)
        assert config.prefix_count == 5
        for prefix in config.prefixes:
            assert len(config.peerings_for(prefix)) == 1
        assert len(config.all_peering_ids()) == 5

    def test_full_budget_covers_everything(self, scenario):
        n = len(scenario.deployment)
        config = one_per_peering(scenario, budget=n)
        assert config.prefix_count == n
        assert config.all_peering_ids() == frozenset(
            p.peering_id for p in scenario.deployment.peerings
        )

    def test_ranked_by_value(self, scenario):
        """The first prefix should go to a peering with standalone value."""
        config = one_per_peering(scenario, budget=1)
        (pid,) = config.peerings_for(0)
        model = scenario.latency_model
        deployment = scenario.deployment
        score = sum(
            ug.volume
            * max(
                0.0,
                scenario.anycast_latency_ms(ug)
                - model.latency_ms(ug, deployment.peering(pid)),
            )
            for ug in scenario.user_groups
            if scenario.catalog.is_compliant(ug, deployment.peering(pid))
        )
        assert score > 0


class TestRegionalTransit:
    def test_only_transit_peerings(self, scenario):
        config = regional_transit(scenario, budget=5)
        deployment = scenario.deployment
        for _prefix, pid in config.pairs():
            assert deployment.peering(pid).is_transit

    def test_one_region_per_prefix(self, scenario):
        config = regional_transit(scenario, budget=5)
        deployment = scenario.deployment
        for prefix in config.prefixes:
            regions = {
                deployment.peering(pid).pop.metro.region
                for pid in config.peerings_for(prefix)
            }
            assert len(regions) == 1


class TestRegistry:
    def test_all_strategies_buildable(self, scenario):
        for name, builder in BASELINE_STRATEGIES.items():
            config = builder(scenario, 2)
            assert config.prefix_count >= 1, name
