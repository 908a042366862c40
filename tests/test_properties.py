"""Property-based tests over randomly generated worlds.

These exercise cross-module invariants the unit tests check only pointwise:
whatever the topology, Algorithm 1 must respect its budget and never lose to
anycast; ground-truth routing must stay policy-compliant; benefit ranges
must stay ordered.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.benefit import realized_benefit
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.core.routing_model import RoutingModel
from repro.scenario import Scenario, build_scenario
from repro.topology.builder import TopologyConfig
from repro.usergroups.generation import UserGroupConfig
from tests.test_core_benefit import realized_improvement
from tests.test_eq2_pass import eq2, evaluator_for

_SCENARIO_CACHE = {}


def make_world(seed: int, n_pops: int, n_stub: int, n_ugs: int) -> Scenario:
    key = (seed, n_pops, n_stub, n_ugs)
    if key not in _SCENARIO_CACHE:
        _SCENARIO_CACHE[key] = build_scenario(
            name=f"prop-{seed}",
            topology_config=TopologyConfig(
                seed=seed,
                n_pops=n_pops,
                n_tier1=2,
                n_transit=3,
                n_regional=8,
                n_stub=n_stub,
            ),
            ug_config=UserGroupConfig(seed=seed + 1, n_ugs=n_ugs),
        )
    return _SCENARIO_CACHE[key]


world_params = st.tuples(
    st.integers(min_value=0, max_value=6),  # seed
    st.integers(min_value=3, max_value=7),  # pops
    st.sampled_from([25, 40]),  # stubs
    st.sampled_from([20, 35]),  # ugs
)

slow = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large, HealthCheck.too_slow],
)


class TestScenarioInvariants:
    @given(world_params)
    @slow
    def test_anycast_never_beats_best_possible(self, params):
        world = make_world(*params)
        for ug in world.user_groups:
            assert (
                world.best_possible_latency_ms(ug)
                <= world.anycast_latency_ms(ug) + 1e-9
            )

    @given(world_params)
    @slow
    def test_ground_truth_always_compliant(self, params):
        world = make_world(*params)
        all_ids = frozenset(p.peering_id for p in world.deployment.peerings)
        for ug in world.user_groups[:10]:
            ingress = world.routing.ingress_for(ug, all_ids)
            assert ingress is not None
            assert world.catalog.is_compliant(ug, ingress)


class TestOrchestratorInvariants:
    @given(world_params, st.integers(min_value=1, max_value=4))
    @slow
    def test_budget_respected_and_beneficial(self, params, budget):
        world = make_world(*params)
        orchestrator = PainterOrchestrator(
            world, OrchestratorConfig(prefix_budget=budget)
        )
        config = orchestrator.solve()
        assert config.prefix_count <= budget
        # Expected benefit of the solution is non-negative and each UG's
        # realized improvement is floored at zero by anycast fallback.
        assert orchestrator.evaluator.expected_benefit(config) >= -1e-9
        for ug in world.user_groups[:10]:
            improvement = realized_improvement(world, ug, config)
            possible = world.anycast_latency_ms(ug) - world.best_possible_latency_ms(ug)
            assert -1e-9 <= improvement <= possible + 1e-9

    @given(world_params)
    @slow
    def test_ranges_ordered_for_solution(self, params):
        world = make_world(*params)
        orchestrator = PainterOrchestrator(world, OrchestratorConfig(prefix_budget=3))
        config = orchestrator.solve()
        evaluation = orchestrator.evaluator.evaluate(config)
        assert evaluation.lower <= evaluation.mean <= evaluation.upper + 1e-9
        assert evaluation.lower <= evaluation.estimated <= evaluation.upper + 1e-9

    @given(world_params)
    @slow
    def test_learning_never_below_anycast(self, params):
        world = make_world(*params)
        orchestrator = PainterOrchestrator(world, OrchestratorConfig(prefix_budget=3))
        result = orchestrator.learn(iterations=2)
        for benefit in result.realized_benefits:
            assert benefit >= -1e-9


class TestRoutingModelInvariants:
    @given(world_params, st.floats(min_value=100.0, max_value=20000.0))
    @slow
    def test_candidates_monotone_in_d_reuse(self, params, d_reuse):
        world = make_world(*params)
        tight = RoutingModel(world.catalog, d_reuse_km=d_reuse / 2)
        loose = RoutingModel(world.catalog, d_reuse_km=d_reuse)
        for ug in world.user_groups[:8]:
            advertised = world.catalog.ingress_ids(ug)
            assert eq2(evaluator_for(world, tight), ug, advertised)[0] <= eq2(
                evaluator_for(world, loose), ug, advertised
            )[0]
