"""The optimality comparator: ILP/LP/brute agreement and bound soundness.

The load-bearing properties (ISSUE 7 acceptance criteria):

* on every tested instance ``greedy_benefit <= lp_bound`` and
  ``ilp_benefit <= lp_bound`` (the LP relaxation is a sound envelope);
* on brute-forceable instances the ILP value matches exhaustive
  enumeration bit-for-bit (both recomputed through the same
  ``BenefitMatrix.selection_value`` float path).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AdvertisementConfig,
    BenefitEvaluator,
    BenefitMatrix,
    OrchestratorConfig,
    PainterOrchestrator,
    RoutingModel,
)
from repro.optimality import (
    DEFAULT_REL_TOL,
    SelectionProblem,
    assert_lp_sound,
    available_backends,
    brute_force,
    greedy_selection,
    solve_ilp,
)
from repro.optimality.solvers import lp_bound

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - test-only dependency
    HAVE_HYPOTHESIS = False

HAVE_SCIPY = "scipy" in available_backends()
needs_scipy = pytest.mark.skipif(not HAVE_SCIPY, reason="scipy not installed")
needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)


def _matrix_from_entries(n_ugs, n_peerings, entries):
    """A BenefitMatrix straight from (row, col, gain) triples."""
    seen = {}
    for row, col, gain in entries:
        seen[(row % n_ugs, col % n_peerings)] = gain
    keys = sorted(seen)
    return BenefitMatrix(
        ug_ids=tuple(range(n_ugs)),
        peering_ids=tuple(100 + c for c in range(n_peerings)),
        rows=np.array([k[0] for k in keys], dtype=np.intp),
        cols=np.array([k[1] for k in keys], dtype=np.intp),
        gains=np.array([seen[k] for k in keys], dtype=np.float64),
    )


@pytest.fixture(scope="module")
def evaluator(scenario):
    return BenefitEvaluator(scenario, RoutingModel(scenario.catalog))


@pytest.fixture(scope="module")
def matrix(evaluator):
    return evaluator.benefit_matrix()


class TestBenefitMatrix:
    def test_shape_and_entries_positive(self, matrix, scenario):
        assert matrix.n_ugs == len(scenario.user_groups)
        assert matrix.nnz > 0
        assert (matrix.gains > 0).all()
        assert matrix.rows.max() < matrix.n_ugs
        assert matrix.cols.max() < matrix.n_peerings

    def test_selection_value_empty_and_all(self, matrix):
        assert matrix.selection_value([]) == 0.0
        all_cols = range(matrix.n_peerings)
        full = matrix.selection_value(all_cols)
        assert full >= matrix.selection_value([0])
        # Duplicates don't double-count.
        assert matrix.selection_value([0, 0]) == matrix.selection_value([0])

    def test_selection_value_out_of_range(self, matrix):
        with pytest.raises(ValueError):
            matrix.selection_value([matrix.n_peerings])
        with pytest.raises(ValueError):
            matrix.selection_value([-1])

    def test_singleton_matches_expected_benefit(self, evaluator, matrix, scenario):
        # Eq. 2 over a singleton advertised set is the peering's own
        # latency, so a one-prefix/one-peering config's benefit must equal
        # the matrix column's selection value exactly.
        for col in (0, matrix.n_peerings // 2, matrix.n_peerings - 1):
            pid = matrix.peering_ids[col]
            config = AdvertisementConfig.from_pairs([(0, pid)])
            assert evaluator.expected_benefit(config) == pytest.approx(
                matrix.selection_value([col]), rel=1e-12
            )


class TestSelectionProblem:
    def test_budget_clamped(self, matrix):
        problem = SelectionProblem.build(matrix, matrix.n_peerings + 50)
        assert problem.budget == matrix.n_peerings
        assert problem.requested_budget == matrix.n_peerings + 50
        assert problem.over_budget

    def test_budget_validation(self, matrix):
        with pytest.raises(ValueError):
            SelectionProblem.build(matrix, 0)
        with pytest.raises(ValueError):
            SelectionProblem(matrix=matrix, budget=5, requested_budget=99)

    def test_value_of_enforces_budget(self, matrix):
        problem = SelectionProblem.build(matrix, 1)
        with pytest.raises(ValueError):
            problem.value_of([0, 1])


class TestBruteAndGreedy:
    def test_greedy_monotone_in_budget(self, matrix):
        values = [
            greedy_selection(SelectionProblem.build(matrix, k))[0]
            for k in (1, 2, 3, 4)
        ]
        assert values == sorted(values)

    def test_brute_force_tiny(self, matrix):
        problem = SelectionProblem.build(matrix, 2)
        value, chosen = brute_force(problem)
        assert len(chosen) <= 2
        assert value == matrix.selection_value(chosen)
        # Greedy can never beat the exhaustive optimum.
        assert greedy_selection(problem)[0] <= value + 1e-9

    def test_brute_force_refuses_blowup(self, matrix):
        problem = SelectionProblem.build(matrix, matrix.n_peerings // 2)
        with pytest.raises(ValueError):
            brute_force(problem, max_combinations=10)


@needs_scipy
class TestScipySolvers:
    def test_ilp_matches_brute_force_tiny(self, matrix):
        problem = SelectionProblem.build(matrix, 3)
        ilp = solve_ilp(problem, backend="scipy")
        brute_value, _ = brute_force(problem)
        assert ilp.value == brute_value  # bit-for-bit, same float path
        assert ilp.status == "optimal"
        assert len(ilp.chosen) <= 3
        assert ilp.chosen_peering_ids == tuple(
            matrix.peering_ids[c] for c in ilp.chosen
        )

    def test_bounds_sound_on_scenario(self, matrix):
        for budget in (1, 2, 4, 8):
            problem = SelectionProblem.build(matrix, budget)
            bound = lp_bound(problem)
            slack = bound.value * DEFAULT_REL_TOL + 1e-9
            assert greedy_selection(problem)[0] <= bound.value + slack
            assert solve_ilp(problem, backend="scipy").value <= bound.value + slack

    def test_greedy_no_reuse_below_ilp_and_lp(self, scenario):
        budget = 4
        orch = PainterOrchestrator(
            scenario,
            OrchestratorConfig(prefix_budget=budget, allow_reuse=False),
        )
        config = orch.solve()
        greedy = orch.evaluator.expected_benefit(config)
        problem = SelectionProblem.from_evaluator(orch.evaluator, budget)
        ilp = solve_ilp(problem, backend="scipy")
        bound = lp_bound(problem)
        slack = bound.value * DEFAULT_REL_TOL + 1e-9
        assert greedy <= ilp.value + slack
        assert ilp.value <= bound.value + slack

    def test_envelope_gate_on_reuse_config(self, scenario):
        orch = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3))
        config = orch.solve()
        envelope = assert_lp_sound(orch.evaluator, config)
        assert envelope.sound
        assert 0.0 < envelope.utilization <= 1.0 + DEFAULT_REL_TOL
        # Budget = the config's distinct peerings, not the prefix budget.
        assert envelope.budget == len(config.all_peering_ids())

    def test_envelope_violation_raises(self, evaluator, scenario):
        pid = next(iter(scenario.catalog.ingress_ids(scenario.user_groups[0])))
        config = AdvertisementConfig.from_pairs([(0, pid)])
        with pytest.raises(AssertionError, match="envelope violated"):
            assert_lp_sound(evaluator, config, benefit=1e12)

    def test_trivial_empty_matrix(self):
        empty = _matrix_from_entries(2, 2, [])
        problem = SelectionProblem.build(empty, 1)
        assert solve_ilp(problem, backend="scipy").value == 0.0
        assert lp_bound(problem).value == 0.0
        assert brute_force(problem)[0] == 0.0


class TestBackends:
    def test_unknown_backend(self, matrix):
        with pytest.raises(ValueError):
            solve_ilp(SelectionProblem.build(matrix, 2), backend="gurobi")

    def test_pulp_is_an_unknown_backend(self, matrix):
        assert "pulp" not in available_backends()
        with pytest.raises(ValueError, match="unknown ILP backend 'pulp'"):
            solve_ilp(SelectionProblem.build(matrix, 2), backend="pulp")

    def test_auto_solves(self, matrix):
        problem = SelectionProblem.build(matrix, 2)
        outcome = solve_ilp(problem, backend="auto")
        assert outcome.value == brute_force(problem)[0]

    def test_brute_backend(self, matrix):
        problem = SelectionProblem.build(matrix, 2)
        outcome = solve_ilp(problem, backend="brute")
        assert outcome.backend == "brute"
        assert outcome.value == brute_force(problem)[0]


@needs_scipy
@pytest.mark.slow
class TestGoldenAzureGap:
    """Golden greedy-vs-optimal gap numbers for the azure preset subset.

    Pins both halves of the comparator: the greedy's benefit (a solver
    regression moves it) and the ILP/LP optimum (a formulation regression
    moves those).  Values regenerate via the snippet in the JSON's sibling
    — see EXPERIMENTS.md's optimality section.
    """

    def test_azure_gap_matches_golden(self):
        import json
        from pathlib import Path

        from repro.experiments.optimality import run_greedy_gap
        from repro.scenario import azure_scenario

        golden = json.loads(
            (Path(__file__).parent / "data" / "golden_optimality.json").read_text()
        )["azure_seed0_ugs200"]
        result = run_greedy_gap(
            scenario=azure_scenario(seed=golden["seed"], n_ugs=golden["n_ugs"]),
            budgets=(4, 8),
            backend="scipy",
        )
        for row in result.rows:
            d = dict(zip(result.columns, row))
            want = golden[f"budget_{d['budget']}"]
            assert d["greedy_benefit"] == pytest.approx(
                want["greedy_benefit"], rel=1e-9
            )
            assert d["ilp_benefit"] == pytest.approx(want["ilp_benefit"], rel=1e-6)
            assert d["lp_bound"] == pytest.approx(want["lp_bound"], rel=1e-6)
            assert d["gap_pct"] == pytest.approx(want["gap_pct"], abs=1e-3)
            assert d["ilp_status"] == "optimal"


if HAVE_HYPOTHESIS:

    @st.composite
    def random_problems(draw):
        n_ugs = draw(st.integers(min_value=1, max_value=6))
        n_peerings = draw(st.integers(min_value=1, max_value=6))
        entries = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n_ugs - 1),
                    st.integers(min_value=0, max_value=n_peerings - 1),
                    st.floats(
                        min_value=0.01,
                        max_value=500.0,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                ),
                max_size=18,
            )
        )
        matrix = _matrix_from_entries(n_ugs, n_peerings, entries)
        budget = draw(st.integers(min_value=1, max_value=n_peerings + 2))
        return SelectionProblem.build(matrix, budget)

    @needs_scipy
    @needs_hypothesis
    @settings(max_examples=40, deadline=None)
    @given(problem=random_problems())
    def test_property_greedy_below_lp_bound(problem):
        greedy_value, _ = greedy_selection(problem)
        bound = lp_bound(problem)
        assert greedy_value <= bound.value * (1.0 + DEFAULT_REL_TOL) + 1e-9

    @needs_scipy
    @needs_hypothesis
    @settings(max_examples=40, deadline=None)
    @given(problem=random_problems())
    def test_property_ilp_matches_brute_force(problem):
        ilp = solve_ilp(problem, backend="scipy")
        brute_value, _ = brute_force(problem)
        assert ilp.value == brute_value  # bit-for-bit
        assert ilp.value <= lp_bound(problem).value * (1.0 + DEFAULT_REL_TOL) + 1e-9
