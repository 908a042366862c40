"""Optimality-bound comparator for Algorithm 1 (ROADMAP item 2).

Poses budget-k prefix-to-peering assignment as an ILP over the sparse
singleton-gain matrix (:meth:`repro.core.BenefitEvaluator.benefit_matrix`),
solves it exactly (scipy/HiGHS, brute force as the tiny-instance oracle),
and exposes the LP relaxation as a cheap upper bound that the benchmark
gates assert against every solved configuration.
"""

from repro.optimality.gates import (
    DEFAULT_REL_TOL,
    LpEnvelope,
    assert_lp_sound,
    lp_envelope,
)
from repro.optimality.problem import (
    MAX_BRUTE_FORCE_COMBINATIONS,
    SelectionProblem,
    brute_force,
    greedy_selection,
)
from repro.optimality.solvers import (
    BackendUnavailable,
    SolveOutcome,
    available_backends,
    lp_bound,
    solve_ilp,
)

__all__ = [
    "BackendUnavailable",
    "DEFAULT_REL_TOL",
    "LpEnvelope",
    "MAX_BRUTE_FORCE_COMBINATIONS",
    "SelectionProblem",
    "SolveOutcome",
    "assert_lp_sound",
    "available_backends",
    "brute_force",
    "greedy_selection",
    "lp_bound",
    "lp_envelope",
    "solve_ilp",
]
