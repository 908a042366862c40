"""ILP / LP-relaxation solvers for :class:`~repro.optimality.SelectionProblem`.

Formulation (Shao et al.'s prefix-selection ILP, specialized to PAINTER's
gain matrix): with binary ``x_p`` ("peering column p selected") and
assignment variables ``y_e`` per sparse gain entry ``e = (u, p)``::

    maximize    sum_e gain_e * y_e
    subject to  sum_{e in UG u} y_e <= 1          for every user group u
                y_e <= x_{col(e)}                 for every entry e
                sum_p x_p <= k
                x binary, 0 <= y <= 1

The linking constraints are disaggregated (one per entry, not per column),
which makes the LP relaxation markedly tighter — and the LP relaxation is
exactly what the benchmark gates use as a cheap optimality envelope.  Only
``x`` needs integrality: once the open columns are fixed, the best ``y``
puts all of a UG's mass on its highest-gain open entry, so optimal ``y``
are automatically extreme.

Backends: ``scipy`` (``scipy.optimize.milp``/HiGHS — the default) and
``brute`` (exhaustive enumeration, tiny instances only).
Every backend reports its value through
:meth:`~repro.core.BenefitMatrix.selection_value` on the chosen columns, so
values from different backends are bit-comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.optimality.problem import (
    MAX_BRUTE_FORCE_COMBINATIONS,
    SelectionProblem,
    brute_force,
)
from repro.telemetry import METRICS, TRACER

__all__ = [
    "BackendUnavailable",
    "SolveOutcome",
    "available_backends",
    "lp_bound",
    "solve_ilp",
]


class BackendUnavailable(RuntimeError):
    """The requested solver backend's dependency is not importable."""


@dataclass(frozen=True)
class SolveOutcome:
    """One solver call's result.

    ``value`` is always recomputed from the chosen columns via
    :meth:`~repro.core.BenefitMatrix.selection_value` (deterministic float
    path); ``objective`` is whatever the backend itself reported, kept for
    mip-gap style diagnostics.  For LP relaxations ``chosen`` is empty and
    ``value == objective`` is the (possibly fractional) bound.
    """

    value: float
    chosen: Tuple[int, ...]
    chosen_peering_ids: Tuple[int, ...]
    objective: float
    status: str
    backend: str
    solve_time_s: float
    mip_gap: Optional[float] = None


def available_backends() -> Tuple[str, ...]:
    """The ILP backends importable in this environment, preference order."""
    found = []
    try:
        import scipy.optimize  # noqa: F401

        found.append("scipy")
    except ImportError:
        pass
    found.append("brute")
    return tuple(found)


def _trivial_outcome(backend: str, status: str = "optimal") -> SolveOutcome:
    return SolveOutcome(
        value=0.0,
        chosen=(),
        chosen_peering_ids=(),
        objective=0.0,
        status=status,
        backend=backend,
        solve_time_s=0.0,
        mip_gap=0.0,
    )


def _scipy_matrices(problem: SelectionProblem):
    """Sparse (A, b_ub, c) for the formulation above; vars are ``[x, y]``."""
    from scipy import sparse

    matrix = problem.matrix
    n_p = matrix.n_peerings
    nnz = matrix.nnz
    n_vars = n_p + nnz
    c = np.zeros(n_vars)
    c[n_p:] = -matrix.gains  # linprog/milp minimize

    entry_idx = np.arange(nnz)
    # Per-UG assignment: sum of the UG's y entries <= 1.
    a_assign = sparse.csr_matrix(
        (np.ones(nnz), (matrix.rows, n_p + entry_idx)),
        shape=(matrix.n_ugs, n_vars),
    )
    # Linking: y_e - x_{col(e)} <= 0, disaggregated per entry.
    link_rows = np.concatenate([entry_idx, entry_idx])
    link_cols = np.concatenate([n_p + entry_idx, matrix.cols])
    link_data = np.concatenate([np.ones(nnz), -np.ones(nnz)])
    a_link = sparse.csr_matrix(
        (link_data, (link_rows, link_cols)), shape=(nnz, n_vars)
    )
    # Budget: sum_p x_p <= k.
    a_budget = sparse.csr_matrix(
        (np.ones(n_p), (np.zeros(n_p, dtype=np.intp), np.arange(n_p))),
        shape=(1, n_vars),
    )
    a_ub = sparse.vstack([a_assign, a_link, a_budget], format="csr")
    b_ub = np.concatenate(
        [np.ones(matrix.n_ugs), np.zeros(nnz), [float(problem.budget)]]
    )
    return c, a_ub, b_ub


def lp_bound(
    problem: SelectionProblem, time_limit_s: Optional[float] = None
) -> SolveOutcome:
    """Solve the LP relaxation: a cheap, sound upper bound on the optimum.

    Every feasible selection (greedy, ILP, or otherwise) satisfies
    ``value <= lp_bound``; the benchmark gates assert exactly that.
    """
    try:
        from scipy.optimize import linprog
    except ImportError as exc:  # pragma: no cover - scipy present in dev env
        raise BackendUnavailable(
            "LP bound requires scipy (scipy.optimize.linprog)"
        ) from exc
    if problem.matrix.nnz == 0:
        return _trivial_outcome("scipy-lp")
    timer = METRICS.timer("optimality.lp_seconds")
    METRICS.counter("optimality.lp_solves").add()
    c, a_ub, b_ub = _scipy_matrices(problem)
    options = {}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)
    with TRACER.span(
        "optimality.lp", n_vars=len(c), budget=problem.budget
    ):
        started = time.perf_counter()
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=(0.0, 1.0),
            method="highs",
            options=options,
        )
        elapsed = time.perf_counter() - started
    timer.add(elapsed)
    if not res.success:
        raise RuntimeError(f"LP relaxation failed: {res.message}")
    bound = float(-res.fun)
    return SolveOutcome(
        value=bound,
        chosen=(),
        chosen_peering_ids=(),
        objective=bound,
        status="optimal",
        backend="scipy-lp",
        solve_time_s=elapsed,
    )


def _solve_scipy(
    problem: SelectionProblem,
    time_limit_s: Optional[float],
    mip_rel_gap: float,
) -> SolveOutcome:
    try:
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError as exc:
        raise BackendUnavailable(
            "scipy backend requires scipy.optimize.milp"
        ) from exc
    matrix = problem.matrix
    if matrix.nnz == 0:
        return _trivial_outcome("scipy")
    c, a_ub, b_ub = _scipy_matrices(problem)
    n_p = matrix.n_peerings
    integrality = np.zeros(len(c))
    integrality[:n_p] = 1  # only x binary; optimal y are extreme anyway
    options = {"mip_rel_gap": float(mip_rel_gap)}
    if time_limit_s is not None:
        options["time_limit"] = float(time_limit_s)
    started = time.perf_counter()
    res = milp(
        c,
        constraints=LinearConstraint(a_ub, -np.inf, b_ub),
        integrality=integrality,
        bounds=Bounds(0.0, 1.0),
        options=options,
    )
    elapsed = time.perf_counter() - started
    if res.x is None:
        raise RuntimeError(f"scipy milp returned no solution: {res.message}")
    chosen = tuple(int(i) for i in np.flatnonzero(res.x[:n_p] > 0.5))
    status = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded"}.get(
        res.status, f"status_{res.status}"
    )
    gap = getattr(res, "mip_gap", None)
    return SolveOutcome(
        value=matrix.selection_value(chosen),
        chosen=chosen,
        chosen_peering_ids=tuple(matrix.peering_ids[c_] for c_ in chosen),
        objective=float(-res.fun),
        status=status,
        backend="scipy",
        solve_time_s=elapsed,
        mip_gap=None if gap is None else float(gap),
    )


def _solve_brute(problem: SelectionProblem) -> SolveOutcome:
    matrix = problem.matrix
    started = time.perf_counter()
    value, chosen = brute_force(problem)
    elapsed = time.perf_counter() - started
    return SolveOutcome(
        value=value,
        chosen=chosen,
        chosen_peering_ids=tuple(matrix.peering_ids[c_] for c_ in chosen),
        objective=value,
        status="optimal",
        backend="brute",
        solve_time_s=elapsed,
        mip_gap=0.0,
    )


def solve_ilp(
    problem: SelectionProblem,
    backend: str = "auto",
    time_limit_s: Optional[float] = None,
    mip_rel_gap: float = 0.0,
) -> SolveOutcome:
    """Solve the selection ILP to optimality with the requested backend.

    ``backend``: ``"scipy"`` (HiGHS via ``scipy.optimize.milp``),
    ``"brute"`` (exhaustive, tiny instances), or ``"auto"`` (first
    available in that order).  Raises
    :class:`BackendUnavailable` when the requested backend's dependency is
    missing.
    """
    if backend == "auto":
        for candidate in available_backends():
            if candidate == "brute":
                # Only fall all the way back to enumeration when feasible.
                import math as _math

                n, k = problem.matrix.n_peerings, problem.budget
                if n and _math.comb(n, min(k, n)) > MAX_BRUTE_FORCE_COMBINATIONS:
                    continue
            try:
                return solve_ilp(
                    problem,
                    backend=candidate,
                    time_limit_s=time_limit_s,
                    mip_rel_gap=mip_rel_gap,
                )
            except BackendUnavailable:
                continue
        raise BackendUnavailable(
            "no usable ILP backend (need scipy or a brute-forceable instance)"
        )
    timer = METRICS.timer("optimality.ilp_seconds")
    METRICS.counter("optimality.ilp_solves").add()
    with TRACER.span(
        "optimality.ilp",
        backend=backend,
        n_peerings=problem.matrix.n_peerings,
        nnz=problem.matrix.nnz,
        budget=problem.budget,
    ):
        if backend == "scipy":
            outcome = _solve_scipy(problem, time_limit_s, mip_rel_gap)
        elif backend == "brute":
            outcome = _solve_brute(problem)
        else:
            raise ValueError(f"unknown ILP backend {backend!r}")
    timer.add(outcome.solve_time_s)
    return outcome
