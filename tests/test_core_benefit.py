"""Benefit math: Eq. 1/2, ranges, realized improvements, the TM's choice."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import benefit
from repro.core.advertisement import AdvertisementConfig
from repro.core.benefit import (
    BenefitEvaluator,
    best_prefix_choices,
    realized_benefit,
    tm_choice,
)
from repro.core.routing_model import RoutingModel
from tests.test_eq2_pass import store_at


def tm_choice_reference(anycast, rows):
    """Scalar Traffic-Manager rule: per row, the first column whose gain
    ``anycast - latency`` is the largest and strictly positive (``-1`` =
    anycast), and the improvement ``anycast - min(anycast, row)``."""
    choices, improvements = [], []
    for fallback, row in zip(anycast, rows):
        best, best_gain = -1, 0.0
        for j, latency in enumerate(row):
            if fallback - latency > best_gain:
                best, best_gain = j, fallback - latency
        choices.append(best)
        improvements.append(fallback - min(fallback, min(row, default=math.inf)))
    return choices, improvements


def realized_improvement(scenario, ug, config, day=0, fixed_prefix=None):
    """One UG's ground-truth improvement under the TM's choice among
    ``config``'s prefixes (or ``fixed_prefix`` alone)."""
    prefixes = [fixed_prefix] if fixed_prefix is not None else config.prefixes
    row = scenario.routing.latencies(
        [ug], [config.peerings_for(prefix) for prefix in prefixes], day=day
    )
    return tm_choice([scenario.anycast_latency_ms(ug, day=day)], row)[1].item(0)


@pytest.fixture()
def evaluator(scenario):
    return BenefitEvaluator(scenario, RoutingModel(scenario.catalog))


def _config_for(scenario, ug, k=3):
    """A single-prefix config over the UG's best few ingresses."""
    model = scenario.latency_model
    deployment = scenario.deployment
    best = sorted(
        scenario.catalog.ingress_ids(ug),
        key=lambda pid: model.latency_ms(ug, deployment.peering(pid)),
    )[:k]
    return AdvertisementConfig.from_pairs([(0, pid) for pid in best])


def _improvement(evaluator, ug, config):
    """One UG's Eq.-2 improvement: anycast minus the smaller of anycast and
    its best prefix's expected latency."""
    anycast = evaluator.scenario.anycast_latency_ms(ug)
    row = evaluator.scenario.user_groups.index(ug)
    best = evaluator.expected_latencies(config)[:, row].min(initial=np.inf)
    return anycast - min(anycast, float(best))


class TestExpectedImprovement:
    def test_empty_config_zero(self, scenario, evaluator):
        config = AdvertisementConfig()
        for ug in scenario.user_groups[:10]:
            assert _improvement(evaluator, ug, config) == 0.0
        assert evaluator.expected_benefit(config) == 0.0

    def test_never_negative(self, scenario, evaluator):
        """Anycast fallback floors improvement at zero (§3.1)."""
        # A config over the UG's *worst* ingresses still scores >= 0.
        model = scenario.latency_model
        deployment = scenario.deployment
        ug = scenario.user_groups[0]
        worst = sorted(
            scenario.catalog.ingress_ids(ug),
            key=lambda pid: -model.latency_ms(ug, deployment.peering(pid)),
        )[:3]
        config = AdvertisementConfig.from_pairs([(0, pid) for pid in worst])
        assert _improvement(evaluator, ug, config) >= 0.0

    def test_best_ingress_config_achieves_gap(self, scenario, evaluator):
        ug = scenario.user_groups[0]
        config = _config_for(scenario, ug, k=1)
        expected = _improvement(evaluator, ug, config)
        gap = scenario.anycast_latency_ms(ug) - scenario.best_possible_latency_ms(ug)
        assert expected == pytest.approx(max(0.0, gap))

    def test_benefit_weighted_sum(self, scenario, evaluator):
        ug = scenario.user_groups[0]
        config = _config_for(scenario, ug, k=1)
        total = evaluator.expected_benefit(config)
        manual = sum(
            u.volume * _improvement(evaluator, u, config)
            for u in scenario.user_groups
        )
        assert total == pytest.approx(manual)


def _band(evaluator, config):
    evaluation = evaluator.evaluate(config)
    return evaluation.lower, evaluation.mean, evaluation.estimated, evaluation.upper


class TestRanges:
    def test_range_ordering_invariant(self, scenario, evaluator):
        ug = scenario.user_groups[0]
        lower, mean, estimated, upper = _band(evaluator, _config_for(scenario, ug, k=4))
        assert lower <= mean <= upper
        assert lower <= estimated <= upper

    def test_single_ingress_range_degenerate(self, scenario, evaluator):
        ug = scenario.user_groups[0]
        lower, mean, estimated, upper = _band(evaluator, _config_for(scenario, ug, k=1))
        assert lower == mean == estimated == upper

    def test_empty_config_zero_range(self, evaluator):
        assert _band(evaluator, AdvertisementConfig()) == (0.0, 0.0, 0.0, 0.0)

    def test_evaluation_aggregates(self, scenario, evaluator):
        ug = scenario.user_groups[0]
        evaluation = evaluator.evaluate(_config_for(scenario, ug, k=3))
        assert evaluation.lower <= evaluation.mean <= evaluation.upper
        assert evaluation.lower <= evaluation.estimated <= evaluation.upper
        assert evaluation.upper > 0.0

    def test_ordering_enforced(self, scenario, evaluator, monkeypatch):
        # Inflation weights of mixed sign (a positive scale never gives
        # one) put ``estimated`` outside [lower, upper] for a UG with two
        # ingresses at different distances and improvements: that raises.
        ug = scenario.user_groups[0]

        evaluator.precompute_latency_matrix()

        def distance(pid):
            return evaluator.store.distance.item(store_at(evaluator, ug, pid))

        near, *others = sorted(scenario.catalog.ingress_ids(ug))
        far = next(pid for pid in others if distance(pid) != distance(near))
        anycast = scenario.anycast_latency_ms(ug)
        skewed = BenefitEvaluator(
            scenario,
            RoutingModel(scenario.catalog),
            latency_of=lambda u, pid: anycast / 4 if pid == near else anycast / 2,
        )
        skewed.precompute_latency_matrix()
        monkeypatch.setattr(
            benefit, "math", SimpleNamespace(exp=lambda x: 1.0 if x == 0 else -0.25)
        )
        with pytest.raises(ValueError, match="inconsistent range"):
            skewed.evaluate(AdvertisementConfig.from_pairs([(0, near), (0, far)]))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_tied_quantized_improvements_pass(self, scenario, data):
        # Latencies at a 0.1 ms resolution, tied across a UG's ingresses:
        # the sequential mean of n equal improvements need not be exactly
        # them ((x + x + x) / 3 != x for about a quarter of such x).  That
        # is rounding, not an inconsistent band.
        ug = scenario.user_groups[0]
        latency = data.draw(st.integers(1, 1000)) / 10
        pids = sorted(scenario.catalog.ingress_ids(ug))[: data.draw(st.integers(2, 6))]
        tied = BenefitEvaluator(
            scenario, RoutingModel(scenario.catalog), latency_of=lambda u, pid: latency
        )
        tied.precompute_latency_matrix()
        anycast = np.array([scenario.anycast_latency_ms(u) for u in scenario.user_groups])
        rows, (lower, mean, estimated, upper) = tied._prefix_bands(
            tied.store, anycast, frozenset(pids)
        )
        assert 0 in rows.tolist()
        np.testing.assert_array_equal(lower, np.maximum(0.0, anycast[rows] - latency))
        np.testing.assert_array_equal(upper, lower)
        slack = 7 * np.finfo(float).eps * upper
        assert (abs(mean - upper) <= slack).all() and (abs(estimated - upper) <= slack).all()

    def test_as_fraction_of(self, scenario, evaluator):
        ug = scenario.user_groups[0]
        config = _config_for(scenario, ug, k=2)
        evaluation = evaluator.evaluate(config)
        scaled = evaluation.as_fraction_of(2.0)
        assert scaled.estimated == pytest.approx(evaluation.estimated / 2.0)
        with pytest.raises(ValueError):
            evaluation.as_fraction_of(0.0)


class TestRealized:
    def test_realized_nonnegative(self, scenario):
        ug = scenario.user_groups[0]
        config = _config_for(scenario, ug, k=3)
        for u in scenario.user_groups[:20]:
            assert realized_improvement(scenario, u, config) >= 0.0

    def test_realized_bounded_by_possible(self, scenario):
        ug = scenario.user_groups[0]
        config = _config_for(scenario, ug, k=3)
        for u in scenario.user_groups[:20]:
            possible = scenario.anycast_latency_ms(u) - scenario.best_possible_latency_ms(u)
            assert realized_improvement(scenario, u, config) <= possible + 1e-9

    def test_empty_config_zero_realized(self, scenario):
        assert realized_benefit(scenario, AdvertisementConfig()) == 0.0

    def test_fixed_prefix_never_beats_dynamic(self, scenario):
        ug = scenario.user_groups[0]
        config = _config_for(scenario, ug, k=2)
        config.add(1, sorted(scenario.catalog.ingress_ids(ug))[0])
        for u in scenario.user_groups[:15]:
            dynamic = realized_improvement(scenario, u, config)
            for prefix in config.prefixes:
                pinned = realized_improvement(scenario, u, config, fixed_prefix=prefix)
                assert pinned <= dynamic + 1e-9

    def test_best_prefix_choices_are_optimal(self, scenario):
        ug = scenario.user_groups[0]
        config = _config_for(scenario, ug, k=2)
        config.add(1, sorted(scenario.catalog.ingress_ids(ug))[-1])
        choices = best_prefix_choices(scenario, config)
        for u in scenario.user_groups[:15]:
            if u.ug_id not in choices:
                continue
            chosen = realized_improvement(
                scenario, u, config, fixed_prefix=choices[u.ug_id]
            )
            assert chosen == pytest.approx(realized_improvement(scenario, u, config))

    def test_full_exposure_realizes_everything(self, scenario):
        """One prefix per peering at full budget = the oracle bound."""
        config = AdvertisementConfig.from_pairs(
            (idx, p.peering_id) for idx, p in enumerate(scenario.deployment.peerings)
        )
        for u in scenario.user_groups[:20]:
            possible = scenario.anycast_latency_ms(u) - scenario.best_possible_latency_ms(u)
            assert realized_improvement(scenario, u, config) == pytest.approx(
                max(0.0, possible)
            )


_LATENCY = st.one_of(
    st.just(math.inf), st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
)


@st.composite
def _catchments(draw):
    """``(anycast, matrix)`` whose cells often repeat anycast, duplicate
    one another or sit one ulp apart far below anycast (a tie in gain)."""
    k = draw(st.integers(min_value=0, max_value=6))
    anycast, rows = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        fallback = draw(st.floats(min_value=0.5, max_value=400.0, allow_nan=False))
        low = fallback / 64
        pool = st.sampled_from([math.inf, fallback, low, math.nextafter(low, math.inf)])
        anycast.append(fallback)
        rows.append(draw(st.lists(st.one_of(pool, _LATENCY), min_size=k, max_size=k)))
    return anycast, np.array(rows, dtype=float).reshape(len(rows), k)


class TestTmChoice:
    """``tm_choice`` against the scalar rule, bit for bit."""

    @given(_catchments())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference(self, catchment):
        anycast, matrix = catchment
        choice, improvement = tm_choice(anycast, matrix)
        expected_choice, expected_improvement = tm_choice_reference(anycast, matrix.tolist())
        assert choice.tolist() == expected_choice
        assert improvement.tolist() == expected_improvement

    def test_edges(self):
        inf = math.inf
        anycast = [50.0, 50.0, 50.0, 50.0, 50.0]
        matrix = np.array(
            [
                [inf, inf, inf],  # no route anywhere: anycast
                [50.0, inf, 60.0],  # equal to anycast is no improvement
                [40.0, 30.0, 30.0],  # duplicate best columns: the first wins
                [30.0, 30.0, 20.0],  # a strictly better later column wins
                [49.0, 50.0, 51.0],
            ]
        )
        choice, improvement = tm_choice(anycast, matrix)
        assert choice.tolist() == [-1, -1, 1, 2, 0]
        assert improvement.tolist() == [0.0, 0.0, 20.0, 30.0, 1.0]
        empty_choice, empty_improvement = tm_choice(anycast, np.empty((5, 0)))
        assert empty_choice.tolist() == [-1] * 5
        assert empty_improvement.tolist() == [0.0] * 5
        assert tm_choice([], np.empty((0, 2)))[0].shape == (0,)

    def test_ties_in_gain_go_to_the_first_column(self):
        # Two latencies that differ by one ulp round to one gain over a
        # slow anycast: the loop's strict ``>`` keeps the earlier column.
        anycast = [1000.0]
        later = 10.0
        earlier = math.nextafter(later, math.inf)
        assert anycast[0] - earlier == anycast[0] - later
        choice, improvement = tm_choice(anycast, np.array([[earlier, later]]))
        assert choice.tolist() == [0]
        assert improvement.tolist() == [anycast[0] - later]
