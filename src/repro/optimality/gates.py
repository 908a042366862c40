"""LP-bound soundness gate: the optimality envelope for solved configs.

For ANY advertisement configuration ``C`` (reuse or not), each UG's Eq.-2
improvement is ``max(0, anycast - min_prefix E[lat(u, A_j)])``, and the
expectation over an advertised set is a mean over a subset of its
measurable compliant ingresses — hence at least the best singleton gain
among ``C``'s distinct peerings.  So::

    expected_benefit(C) <= OPT(selection, budget=|distinct peerings of C|)
                        <= lp_bound(selection, same budget)

:func:`assert_lp_sound` checks that chain end-to-end and is wired into the
solve/parallel/controller benchmark gates, so perf work (memoization,
sharding, warm-start) cannot silently push the greedy's benefit past — or
mis-measure it against — a provable optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.advertisement import AdvertisementConfig
from repro.core.benefit import BenefitEvaluator
from repro.optimality.problem import SelectionProblem
from repro.optimality.solvers import SolveOutcome, lp_bound
from repro.telemetry import METRICS

__all__ = ["LpEnvelope", "assert_lp_sound", "lp_envelope"]

#: Relative slack for the soundness comparison — covers nothing but float
#: round-off between two independently-accumulated sums over the same data.
DEFAULT_REL_TOL = 1e-6


@dataclass(frozen=True)
class LpEnvelope:
    """A config's benefit against the LP optimality envelope at its budget."""

    benefit: float
    bound: float
    budget: int
    lp: SolveOutcome

    @property
    def sound(self) -> bool:
        return self.benefit <= self.bound * (1.0 + DEFAULT_REL_TOL) + 1e-9

    @property
    def utilization(self) -> float:
        """benefit / bound — how much of the provable optimum is realized."""
        return self.benefit / self.bound if self.bound > 0.0 else 1.0


def lp_envelope(
    evaluator: BenefitEvaluator,
    config: AdvertisementConfig,
    benefit: Optional[float] = None,
) -> LpEnvelope:
    """Compute the LP upper bound that dominates ``config``'s benefit.

    The envelope budget is the number of *distinct peerings* the config
    actually advertises (not the prefix budget): a reuse config with ``m``
    distinct peerings is dominated by the selection optimum at budget
    ``m``, which the LP relaxation upper-bounds.  ``benefit`` defaults to
    ``evaluator.expected_benefit(config)``.
    """
    if benefit is None:
        benefit = evaluator.expected_benefit(config)
    budget = max(1, len(config.all_peering_ids()))
    problem = SelectionProblem.from_evaluator(evaluator, budget)
    outcome = lp_bound(problem)
    return LpEnvelope(
        benefit=float(benefit),
        bound=outcome.value,
        budget=problem.budget,
        lp=outcome,
    )


def assert_lp_sound(
    evaluator: BenefitEvaluator,
    config: AdvertisementConfig,
    benefit: Optional[float] = None,
) -> LpEnvelope:
    """Raise ``AssertionError`` unless ``benefit <= lp_bound`` holds.

    Returns the computed :class:`LpEnvelope` so callers can also read the
    bound and utilization.
    """
    envelope = lp_envelope(evaluator, config, benefit=benefit)
    METRICS.counter("optimality.envelope_checks").add()
    if not envelope.sound:
        METRICS.counter("optimality.envelope_violations").add()
        raise AssertionError(
            "LP optimality envelope violated: benefit "
            f"{envelope.benefit:.9g} > bound {envelope.bound:.9g} at "
            f"budget {envelope.budget} — the benefit computation and the "
            "selection relaxation disagree; a solver change has likely "
            "broken Eq.-2 evaluation"
        )
    return envelope
