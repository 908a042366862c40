"""Ground-truth routing oracle: ingress selection, anycast, determinism."""

import math

import numpy as np
import pytest

from repro.routing.ground_truth import GroundTruthRouting
from tests.test_core_benefit import realized_improvement


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


class TestLatencies:
    """``latencies`` is the per-cell ``latency_for`` table (``inf`` = no
    route), and every realized-benefit consumer reads the same cells."""

    @pytest.mark.parametrize("day", [0, 5])
    @pytest.mark.parametrize("world", ["scenario", "small_scenario"])
    def test_matches_latency_for_per_cell(self, request, world, day):
        scenario = request.getfixturevalue(world)
        routing = scenario.routing
        ids = sorted(p.peering_id for p in scenario.deployment.peerings)
        disabled = set(ids[::3])
        ugs = scenario.user_groups[:40]
        non_compliant = next(
            (
                [p for p in ids if p not in scenario.catalog.ingress_ids(ug)][:3]
                for ug in ugs
                if len(scenario.catalog.ingress_ids(ug)) < len(ids)
            ),
            [],
        )
        advertised_sets = [
            frozenset(ids[:6]),
            frozenset(),
            [p for p in ids[2:14] if p not in disabled],  # soak's live set
            frozenset(ids[:6]),  # a tie with the first column
            frozenset(non_compliant),
            frozenset(ids),
        ]
        # A fresh oracle: its cells come from cold caches, the reference's
        # from the session's warm ones.
        fresh = GroundTruthRouting(routing.topology, routing.latency_model, seed=routing.seed)
        matrix = fresh.latencies(ugs, advertised_sets, day=day)
        assert matrix.shape == (len(ugs), len(advertised_sets))
        for i, ug in enumerate(ugs):
            for j, advertised in enumerate(advertised_sets):
                expected = routing.latency_for(ug, advertised, day=day)
                assert matrix[i, j] == (math.inf if expected is None else expected)
        assert np.isinf(matrix[:, 1]).all()
        assert np.array_equal(matrix[:, 0], matrix[:, 3])
        assert np.isfinite(matrix[:, 5]).all()  # anycast reaches everyone
        assert fresh.latencies(ugs, []).shape == (len(ugs), 0)

    def test_consumers_take_the_best_prefix(self, scenario):
        from repro.core.advertisement import AdvertisementConfig
        from repro.core.benefit import best_prefix_choices
        from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
        from repro.enterprise import EnterpriseConfig, analyze_slos, build_enterprise

        routing = scenario.routing
        config = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3)).solve()
        # Prefix 3 repeats prefix 0: every latency ties, the lower one wins.
        tied = config.copy()
        for pid in config.peerings_for(0):
            tied.add(3, pid)
        for day in (0, 5):
            choices = best_prefix_choices(scenario, tied, day=day)
            assert 3 not in choices.values()
            for ug in scenario.user_groups:
                anycast = scenario.anycast_latency_ms(ug, day=day)
                cells = [
                    routing.latency_for(ug, tied.peerings_for(prefix), day=day)
                    for prefix in tied.prefixes
                ]
                best = min([anycast] + [c for c in cells if c is not None])
                assert realized_improvement(scenario, ug, tied, day=day) == anycast - best
                if ug.ug_id in choices:
                    assert cells[tied.prefixes.index(choices[ug.ug_id])] == best < anycast
                else:
                    assert best == anycast

        enterprise = build_enterprise(scenario, EnterpriseConfig(seed=2, n_branches=2))
        by_site = {site.name: site for site in enterprise.sites}
        for outcome in analyze_slos(scenario, enterprise, config):
            ug = by_site[outcome.site_name].user_group
            cells = [routing.latency_for(ug, config.peerings_for(p)) for p in config.prefixes]
            anycast = scenario.anycast_latency_ms(ug)
            assert outcome.painter_latency_ms == min(
                [anycast] + [c for c in cells if c is not None]
            )
            assert 0 < outcome.painter_latency_ms <= anycast
