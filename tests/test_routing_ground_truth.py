"""Ground-truth routing oracle: ingress selection, anycast, determinism."""

import pytest

from repro.routing.ground_truth import GroundTruthRouting


class TestIngressSelection:
    def test_ingress_is_always_advertised_and_compliant(self, scenario):
        routing = scenario.routing
        catalog = scenario.catalog
        all_ids = sorted(p.peering_id for p in scenario.deployment.peerings)
        subsets = [frozenset(all_ids[:5]), frozenset(all_ids[5:15]), frozenset(all_ids)]
        for ug in scenario.user_groups[:25]:
            for advertised in subsets:
                ingress = routing.ingress_for(ug, advertised)
                if ingress is None:
                    continue
                assert ingress.peering_id in advertised
                assert catalog.is_compliant(ug, ingress)

    def test_empty_advertisement_unreachable(self, scenario):
        assert scenario.routing.ingress_for(scenario.user_groups[0], frozenset()) is None

    def test_deterministic(self, scenario):
        routing = scenario.routing
        advertised = frozenset(p.peering_id for p in scenario.deployment.peerings[:12])
        for ug in scenario.user_groups[:20]:
            assert routing.ingress_for(ug, advertised) == routing.ingress_for(
                ug, advertised
            )

    def test_single_peering_advertisement(self, scenario):
        """Advertising via one compliant peering lands the UG there."""
        routing = scenario.routing
        for ug in scenario.user_groups[:15]:
            pid = min(scenario.catalog.ingress_ids(ug))
            ingress = routing.ingress_for(ug, frozenset({pid}))
            assert ingress is not None
            assert ingress.peering_id == pid

    def test_non_compliant_only_advertisement_unreachable(self, scenario):
        routing = scenario.routing
        catalog = scenario.catalog
        for ug in scenario.user_groups:
            non_compliant = [
                p.peering_id
                for p in scenario.deployment.peerings
                if p.peering_id not in catalog.ingress_ids(ug)
            ]
            if not non_compliant:
                continue
            assert routing.ingress_for(ug, frozenset(non_compliant[:3])) is None
            return
        pytest.skip("every UG is compliant with every peering in this seed")


class TestAnycast:
    def test_every_ug_has_anycast_route(self, scenario):
        for ug in scenario.user_groups:
            assert scenario.routing.anycast_ingress(ug) is not None
            assert scenario.routing.anycast_latency_ms(ug) > 0

    def test_anycast_latency_matches_ingress(self, scenario):
        routing = scenario.routing
        for ug in scenario.user_groups[:20]:
            ingress = routing.anycast_ingress(ug)
            latency = routing.anycast_latency_ms(ug)
            assert latency == scenario.latency_model.latency_ms(ug, ingress)

    def test_default_as_path_ends_at_cloud(self, scenario):
        routing = scenario.routing
        for ug in scenario.user_groups[:20]:
            path = routing.default_as_path(ug)
            assert path is not None
            assert path[-1] == 1  # the cloud ASN

    def test_anycast_at_least_best_possible(self, scenario):
        """Anycast can never beat the best policy-compliant ingress."""
        for ug in scenario.user_groups:
            assert (
                scenario.anycast_latency_ms(ug)
                >= scenario.best_possible_latency_ms(ug) - 1e-9
            )


class TestExitPolicies:
    def test_some_cold_potato_inflation_exists(self, small_scenario):
        """Some UGs must be dragged to far exits — the PAINTER motivation."""
        routing = small_scenario.routing
        inflated = 0
        for ug in small_scenario.user_groups:
            anycast = small_scenario.anycast_latency_ms(ug)
            best = small_scenario.best_possible_latency_ms(ug)
            if anycast - best > 20.0:
                inflated += 1
        assert inflated >= len(small_scenario.user_groups) // 20

    def test_day_passes_through_to_latency(self, scenario):
        routing = scenario.routing
        ug = scenario.user_groups[0]
        advertised = frozenset(p.peering_id for p in scenario.deployment.peerings)
        base = routing.latency_for(ug, advertised, day=0)
        later = [routing.latency_for(ug, advertised, day=d) for d in range(1, 10)]
        assert any(value != base for value in later)
