"""Algorithm 1's lazy-greedy loop, written once.

The paper's Advertisement Orchestrator is one greedy loop: prefix by
prefix, advertise the current prefix via peerings in ranked order of
marginal benefit for as long as one offers any.  :func:`lazy_greedy` is
that loop and nothing else — heap, staleness stamps, re-push rule, cutoff,
work counters, the per-prefix trace span and the budget curve.  Everything
that knows what a marginal *is* sits behind :class:`MarginalSource`: the
row engine and the warm-start memo wrapped around it
(:mod:`repro.core.rows`, :mod:`repro.core.orchestrator`) are sources of
this one driver, and so is the dict-backed fake the tests check it with.

The loop is lazy (Minoux): a marginal computed before the latest accept is
stale — and, benefits being submodular, an upper bound — so it is refreshed
only when it reaches the top of the heap.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

from repro.core.advertisement import AdvertisementConfig
from repro.telemetry import METRICS, TRACER

#: Marginal benefit below this (volume-weighted ms) counts as "no benefit".
EPSILON_BENEFIT = 1e-9
#: Histogram buckets for accepted marginal benefits (volume-weighted ms).
_BENEFIT_BUCKETS = (
    0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)
#: How deep into the heap array the stale-candidate lookahead peeks: the
#: first entries of a binary heap hold its smallest few keys, so sorting
#: these eight finds the likely next refreshes without popping anything.
#: It bounds a useful ``lookahead`` at 7 (the row engine's width).
_LOOKAHEAD_WINDOW = 8

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BudgetPoint:
    """Benefit snapshot after the k-th prefix was fully allocated."""

    prefixes_used: int
    pairs_used: int
    estimated_benefit: float
    upper_benefit: float
    lower_benefit: float
    mean_benefit: float


class MarginalSource(Protocol):
    """What :func:`lazy_greedy` needs to know about marginal benefits.

    Between ``begin_prefix`` and ``end_prefix`` the source tracks the set
    accepted so far for the current prefix; ``refresh`` answers against
    that set.  Gains are plain Python floats.
    """

    #: How many stale heap-top candidates ``refresh`` wants to be shown
    #: (0: none).  A source whose cost is mostly per call, not per row,
    #: computes their marginals in the same pass and serves their own
    #: refreshes, which usually follow before the next accept, from it.
    lookahead: int

    def begin_prefix(self, prefix: int) -> Sequence[float]:
        """Start ``prefix``; the initial gain of every candidate peering,
        in candidate order."""

    def refresh(self, peering_id: int, stale: Callable[[], Sequence[int]]) -> float:
        """The marginal gain of adding ``peering_id`` to the accepted set.

        ``stale()`` lists the candidates near the top of the heap whose
        marginals are stale too (the likely next requests), drawn from its
        ``lookahead + 1`` best entries; empty when ``lookahead`` is 0.  The
        list is built when asked for, so a source that computes nothing
        ahead on this call does not pay for it; it is valid only during
        the call.
        """

    def accept(self, peering_id: int) -> None:
        """``peering_id`` joined the current prefix's accepted set."""

    def end_prefix(self) -> None:
        """The current prefix's inner loop is over."""


def _stale_top(heap: list, version: int, lookahead: int) -> List[int]:
    """The stale candidates among the ``lookahead + 1`` best heap entries."""
    best = sorted(heap[:_LOOKAHEAD_WINDOW])[: lookahead + 1]
    return [pid for _, seen, pid in best if seen != version]


def lazy_greedy(
    source: MarginalSource,
    peering_ids: Sequence[int],
    budget: int,
    *,
    allow_reuse: bool = True,
    evaluate: Optional[Callable[[AdvertisementConfig], object]] = None,
) -> Tuple[AdvertisementConfig, List[BudgetPoint]]:
    """Allocate up to ``budget`` prefixes over ``peering_ids`` greedily.

    Heap entries are ``(-gain, version, peering_id)``: ties on gain go to
    the entry refreshed earlier, then to the lower peering id.  ``version``
    is the number of accepts the entry's gain has seen, so an entry is
    stale exactly when it differs from the current accept count.  With
    ``allow_reuse`` off each prefix takes a single peering (the ablation).
    ``evaluate`` (a config → benefit-range evaluation) turns on the budget
    curve, one :class:`BudgetPoint` per allocated prefix.
    """
    config = AdvertisementConfig()
    curve: List[BudgetPoint] = []
    METRICS.counter("orchestrator.solve_calls").add()
    marginal_evals = METRICS.counter("orchestrator.marginal_evals")
    naive_evals = METRICS.counter("orchestrator.naive_marginal_evals")
    repushes = METRICS.counter("orchestrator.heap_repushes")
    marginal_hist = METRICS.histogram(
        "orchestrator.marginal_benefit", _BENEFIT_BUCKETS
    )
    n_peerings = len(peering_ids)
    lookahead = source.lookahead
    for prefix in range(budget):
        with TRACER.span("orchestrator.prefix_scan", prefix=prefix) as span:
            gains = source.begin_prefix(prefix)
            marginal_evals.add(n_peerings)
            version = 0
            heap = [(-gain, 0, pid) for gain, pid in zip(gains, peering_ids)]
            heapq.heapify(heap)
            while heap:
                neg_gain, seen_version, pid = heapq.heappop(heap)
                if seen_version != version:
                    marginal_evals.add()
                    stale = (
                        partial(_stale_top, heap, version, lookahead) if lookahead else tuple
                    )
                    fresh = source.refresh(pid, stale)
                    # Lazy re-evaluation: the refreshed marginal is only
                    # re-enqueued when it has fallen below the current heap
                    # top — otherwise it is still the best candidate and is
                    # decided on right here, with no extra pop.
                    if heap and fresh < -heap[0][0] - EPSILON_BENEFIT:
                        repushes.add()
                        heapq.heappush(heap, (-fresh, version, pid))
                        continue
                    neg_gain = -fresh
                if -neg_gain <= EPSILON_BENEFIT:
                    break  # no peering offers positive benefit for this prefix
                marginal_hist.observe(-neg_gain)
                config.add(prefix, pid)
                version += 1
                source.accept(pid)
                if not allow_reuse:
                    break  # one peering per prefix (ablation)
            source.end_prefix()
            # What a naive greedy (full re-evaluation each step) would have
            # spent on this prefix: one scan over the remaining peerings per
            # accept, plus the final scan that finds nothing.
            if allow_reuse:
                naive_evals.add(
                    (version + 1) * n_peerings - version * (version + 1) // 2
                )
            else:
                naive_evals.add(n_peerings)
            span.tag("accepted", version)
        if not version:
            break  # nothing left anywhere: further prefixes also won't help
        logger.debug("prefix %d advertised via %d peerings", prefix, version)
        if evaluate is not None:
            evaluation = evaluate(config)
            curve.append(
                BudgetPoint(
                    prefixes_used=config.prefix_count,
                    pairs_used=config.pair_count,
                    estimated_benefit=evaluation.estimated,
                    upper_benefit=evaluation.upper,
                    lower_benefit=evaluation.lower,
                    mean_benefit=evaluation.mean,
                )
            )
    return config, curve
