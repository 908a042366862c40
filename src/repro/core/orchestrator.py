"""The Advertisement Orchestrator: Algorithm 1 plus the learning loop.

Greedy structure follows the paper's pseudocode exactly:

* outer loop — learning iterations: solve, execute the advertisement against
  ground truth, observe which ingresses UGs actually used, fold the
  observations into the routing model, repeat;
* middle loop — one prefix at a time from the budget;
* inner loop — advertise the current prefix via as many peerings as provide
  positive marginal benefit (prefix reuse), considered in ranked order of
  estimated improvement (Eq. 2).

The middle and inner loops are :func:`repro.core.greedy.lazy_greedy` — the
ranked scan with lazy re-evaluation (stale marginals are recomputed only
when they reach the top of the heap), mirroring the paper's note that "UGs
tend to have paths via a relatively small fraction of ingresses, speeding
up computation".  Both ways of solving here (``solve``, ``solve_warm``)
are that one driver over the row engine
(:class:`repro.core.rows.RowEngine`), bare or wrapped in the warm-start
memo; this module only chooses which.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.advertisement import AdvertisementConfig
from repro.core.benefit import BenefitEvaluator, LatencyFn, realized_benefit
from repro.core.greedy import EPSILON_BENEFIT, BudgetPoint, MarginalSource, lazy_greedy
from repro.core.routing_model import DEFAULT_D_REUSE_KM, RoutingModel
from repro.core.rows import MarginalDetail, PatchSites, RowEngine
from repro.scenario import Scenario
from repro.telemetry import METRICS, TRACER, emit_event

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class OrchestratorConfig:
    """Everything that parameterizes one :class:`PainterOrchestrator`:
    ``PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=10))``.
    """

    #: Number of /24 prefixes Algorithm 1 may allocate (its budget, k).
    prefix_budget: int
    #: Geographic reuse distance for the routing model (Eq. 3).
    d_reuse_km: float = DEFAULT_D_REUSE_KM
    #: Latency oracle override; ``None`` uses the scenario's ground truth.
    latency_of: Optional[LatencyFn] = None
    #: Ablation knob: with reuse disabled each prefix is advertised via a
    #: single peering, reducing Algorithm 1 to a greedy one-per-peering.
    allow_reuse: bool = True

    def __post_init__(self) -> None:
        budget = self.prefix_budget
        if not isinstance(budget, int) or isinstance(budget, bool):
            raise ValueError(f"prefix budget must be an int, not {budget!r}")
        if budget < 1:
            raise ValueError("prefix budget must be at least 1")
        if not self.d_reuse_km >= 0:  # also rejects nan
            raise ValueError(f"d_reuse_km must be non-negative, not {self.d_reuse_km!r}")


@dataclass
class _PrefixMemo:
    """Everything one prefix's inner-loop scan computed, for replay.

    ``accepts`` is the ordered accepted-peering sequence; ``build`` the
    initial-heap marginal per peering; ``refresh`` the lazily recomputed
    marginal keyed by ``(version, peering_id)`` — the version stamp is the
    number of accepts that preceded the recomputation, which (together
    with the static per-peering arrays and the peering's UG volumes) fully
    determines the value.
    """

    accepts: List[int] = field(default_factory=list)
    build: Dict[int, float] = field(default_factory=dict)
    refresh: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: Per-refresh summation breakdown keyed like ``refresh``: one term
    #: per slot of the peering's span (shrink rows included, learned rows'
    #: terms in place), whose length is fixed for the world.  A volume
    #: shift changes only the shifted UG's entries, so the next warm solve
    #: can substitute those rows and re-run the *same* float summation —
    #: bit-equal to a full recomputation at a tiny fraction of the cost
    #: (see :meth:`repro.core.rows.RowEngine.patch`).
    detail: Dict[Tuple[int, int], MarginalDetail] = field(default_factory=dict)


@dataclass
class SolveMemo:
    """A recorded solve, replayable by :meth:`PainterOrchestrator.solve_warm`.

    Warm-start soundness rests on one invariant: every marginal is a pure
    function of (the accept sequence so far, the peering's static
    latency/distance arrays, the volumes of the peering's affected UGs).
    The scan state (the row engine's ``d0``/``csum``/``ccnt``/``ob`` arrays
    and per-prefix expected latencies) is
    volume-free and evolves only through accepts, so while a replay's
    accept sequence still matches this memo's, a memoized marginal for a
    *clean* peering (none of its UGs' volumes changed, not toggled, no
    learned-set change touching it) is bit-equal to what a cold solve
    would recompute.  The first divergence flips ``intact`` off and every
    later value is computed fresh — the replay is then simply a cold solve.
    """

    budget: int = 0
    allow_reuse: bool = True
    learned_rows: FrozenSet[int] = frozenset()
    active_peerings: FrozenSet[int] = frozenset()
    prefixes: List[_PrefixMemo] = field(default_factory=list)


@dataclass(frozen=True)
class WarmSolveStats:
    """Accounting of one :meth:`PainterOrchestrator.solve_warm` call."""

    #: ``"warm"`` when a usable memo existed, else ``"cold"``.
    mode: str
    #: Peerings whose marginals a delta could have touched (recomputed).
    dirty_peerings: int
    #: Memoized marginals reused verbatim.
    reused_evals: int
    #: Marginals computed fresh (dirty peerings + post-divergence work).
    fresh_evals: int
    #: True when the replayed accept sequence departed from the memo's.
    diverged: bool
    #: Volume-dirty marginals rebuilt by patching the memoized summation
    #: (bit-equal to a fresh evaluation, ~10x cheaper).
    patched_evals: int = 0


class _WarmSource:
    """The warm-start memo as a source wrapped around the in-process one.

    Replays ``memo_in`` (see :class:`SolveMemo`) while recording
    ``memo_out``: a marginal the pending deltas cannot have touched is
    answered from the memo, one whose only dirt is a volume shift
    (``vol_rows``: peering -> shifted UG rows) is patched, everything else
    is asked of ``inner``.  ``intact`` holds while the replayed accept
    sequence still matches the memo's; the first divergence ends all reuse.
    Of the stale heap-top peerings the driver shows it, only those ``inner``
    will be asked for (dirty ones, or all once diverged) are passed on for
    ``inner`` to compute ahead.
    """

    def __init__(
        self,
        inner: RowEngine,
        memo_in: Optional[SolveMemo],
        memo_out: SolveMemo,
        dirty: Set[int],
        vol_rows: Dict[int, Set[int]],
    ) -> None:
        self.peering_ids = inner.peering_ids
        self.lookahead = inner.lookahead
        self._inner = inner
        self._memo_in = memo_in
        self._memo_out = memo_out
        self._dirty = dirty
        self._vol_rows = vol_rows
        self.intact = memo_in is not None
        self.reused = self.fresh = self.patched = 0
        self._evals = METRICS.counter("orchestrator.marginal_evals")
        #: Per volume-dirty peering: where its patches write, found on its
        #: first patch of this solve.
        self._sites: Dict[int, PatchSites] = {}

    def begin_prefix(self, prefix: int) -> List[float]:
        self._accepts = 0
        self._replayed: Optional[_PrefixMemo] = None
        if self.intact:
            if prefix < len(self._memo_in.prefixes):
                self._replayed = self._memo_in.prefixes[prefix]
            else:
                self.intact = False  # the memo solve stopped earlier than us
        self._recorded = _PrefixMemo()
        self._memo_out.prefixes.append(self._recorded)
        inner = self._inner
        inner.begin_round(prefix)
        replayed = self._replayed.build if self.intact else None
        dirty, vol_rows = self._dirty, self._vol_rows
        build = self._recorded.build
        fresh = []
        for pid in self.peering_ids:
            # Volume-dirty peerings rebuild fresh too: the initial build is
            # one dot product, and BLAS accumulation order is not
            # reproducible by scalar patching.
            gain = None
            if replayed is not None and pid not in dirty and pid not in vol_rows:
                gain = replayed.get(pid)
            if gain is None:
                fresh.append(pid)
            build[pid] = gain
        build.update(zip(fresh, inner.initial(fresh)))
        self.fresh += len(fresh)
        self.reused += len(build) - len(fresh)
        return list(build.values())

    def refresh(self, pid: int, stale) -> float:
        # The memo keys a refreshed marginal on the number of accepts that
        # preceded it (see _PrefixMemo).
        key = (self._accepts, pid)
        clean = self.intact and pid not in self._dirty
        changed = self._vol_rows.get(pid)
        gain = detail = None
        if clean:
            detail = self._replayed.detail.get(key)
            if changed is None:
                gain = self._replayed.refresh.get(key)
            elif detail is not None:
                # A learned-set change since the memo dirtied every
                # peering of the rows it touched, so ``detail`` was
                # recorded under the same learned mask as this solve's.
                sites = self._sites.get(pid)
                if sites is None:
                    sites = self._sites[pid] = self._inner.patch_sites(pid, changed)
                gain, detail = self._inner.patch(pid, detail, sites)
        if gain is None:
            if self.intact:
                shown, dirty = stale, self._dirty
                stale = lambda: [other for other in shown() if other in dirty]
            gain, detail = self._inner.marginal(pid, stale)
            self.fresh += 1
        else:
            # Reused or patched, not evaluated: take back the driver's count.
            self._evals.value -= 1
            if changed is None:
                self.reused += 1
            else:
                self.patched += 1
        self._recorded.refresh[key] = gain
        if detail is not None:
            self._recorded.detail[key] = detail
        return gain

    def accept(self, pid: int) -> None:
        self._recorded.accepts.append(pid)
        if self.intact:
            accepts = self._replayed.accepts
            if self._accepts >= len(accepts) or accepts[self._accepts] != pid:
                # Divergence: every later memoized value was computed
                # against state we no longer share.
                self.intact = False
        self._accepts += 1
        self._inner.accept(pid)

    def end_prefix(self) -> None:
        self._inner.end_prefix()
        if self.intact and self._accepts != len(self._replayed.accepts):
            # We stopped accepting earlier than the memo solve did (a dirty
            # marginal dropped below the cutoff): later prefixes see a
            # different base state, so no further reuse.
            self.intact = False


@dataclass(frozen=True)
class ObservationReport:
    """Accounting of one ``execute_and_observe`` round under degradation."""

    learned: int = 0
    observed: int = 0
    missing: int = 0
    stale: int = 0

    @property
    def total(self) -> int:
        return self.observed + self.missing + self.stale

    @property
    def degraded_fraction(self) -> float:
        """Fraction of this round's observations withheld or stale."""
        if self.total == 0:
            return 0.0
        return (self.missing + self.stale) / self.total


class ObservationFaultsLike:
    """Protocol-ish observation filter (see :class:`repro.faults.ObservationFaults`).

    ``outcome(iteration, ug_id, prefix)`` returns ``"ok"``, ``"missing"``,
    or ``"stale"``.
    """

    def outcome(self, iteration: int, ug_id: int, prefix: int) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class IterationRecord:
    """One learning iteration's outcome."""

    iteration: int
    config: AdvertisementConfig
    expected_benefit: float
    realized_benefit: float
    upper_benefit: float
    estimated_benefit: float
    lower_benefit: float
    new_preferences: int
    observations_observed: int = 0
    observations_missing: int = 0
    observations_stale: int = 0

    @property
    def degraded_fraction(self) -> float:
        total = (
            self.observations_observed
            + self.observations_missing
            + self.observations_stale
        )
        if total == 0:
            return 0.0
        return (self.observations_missing + self.observations_stale) / total

    @property
    def uncertainty(self) -> float:
        """Pre-test uncertainty band: best case minus inflation-weighted.

        When fault injection withheld or staled part of the round's
        observations, the band is widened proportionally — the model
        refined itself on less evidence than the benefit estimate assumes,
        so claiming the clean-round band would overstate confidence.
        """
        return (self.upper_benefit - self.estimated_benefit) * (
            1.0 + self.degraded_fraction
        )


@dataclass
class LearningResult:
    """The full learning-loop history (Fig. 6c)."""

    iterations: List[IterationRecord] = field(default_factory=list)

    @property
    def final_config(self) -> AdvertisementConfig:
        """The configuration to deploy: the best *measured* one.

        Each iteration's configuration is executed and measured; an operator
        deploys the best-known configuration, not the latest exploration —
        an untested re-solve can regress while the routing model digests new
        observations (the incorrect-assumption transients of §3.1).
        """
        if not self.iterations:
            raise ValueError("no iterations recorded")
        return max(self.iterations, key=lambda r: r.realized_benefit).config

    @property
    def last_config(self) -> AdvertisementConfig:
        """The most recent (possibly exploratory) configuration."""
        if not self.iterations:
            raise ValueError("no iterations recorded")
        return self.iterations[-1].config

    @property
    def realized_benefits(self) -> List[float]:
        return [record.realized_benefit for record in self.iterations]

    @property
    def uncertainties(self) -> List[float]:
        return [record.uncertainty for record in self.iterations]


class PainterOrchestrator:
    """Computes advertisement configurations for a scenario.

    ``latency_of`` lets callers substitute measured/estimated latencies (the
    geolocation heuristic, ping minima) for the default true-latency source,
    as the paper does in its Azure evaluation.
    """

    def __init__(
        self,
        scenario: Scenario,
        config: OrchestratorConfig,
        *,
        model: Optional[RoutingModel] = None,
    ) -> None:
        if not isinstance(config, OrchestratorConfig):
            raise TypeError(
                f"config must be an OrchestratorConfig, not {type(config)!r}"
            )
        self._scenario = scenario
        self._config = config
        self._budget = config.prefix_budget
        self._model = model or RoutingModel(
            scenario.catalog, d_reuse_km=config.d_reuse_km
        )
        self._evaluator = BenefitEvaluator(
            scenario, self._model, latency_of=config.latency_of
        )
        #: Every peering compliant for some UG: the candidates of a solve
        #: with none disabled.
        self._candidates: FrozenSet[int] = frozenset().union(
            *map(scenario.catalog.ingress_ids, scenario.user_groups)
        )
        self._allow_reuse = config.allow_reuse
        self.budget_curve: List[BudgetPoint] = []
        #: Freshest observation per (ug_id, prefix) — what a lagging
        #: collector replays when fault injection serves stale data.
        self._last_seen: Dict[Tuple[int, int], Tuple[FrozenSet[int], int]] = {}
        self._ug_index: Dict[int, int] = {
            ug.ug_id: i for i, ug in enumerate(scenario.user_groups)
        }
        #: The row engine every solve runs on (built on first solve), which
        #: holds the per-peering evaluation arrays.
        self._engine: Optional[RowEngine] = None
        #: Warm-start state: the memo of the last recorded solve, the set
        #: of peerings a world mutation has dirtied since, and peerings
        #: taken administratively down.
        self._memo: Optional[SolveMemo] = None
        self._dirty_pids: Set[int] = set()
        #: Volume-only dirt, tracked per peering at UG-row granularity: a
        #: volume shift changes marginal *weights* but no scan state, so
        #: the next warm solve can patch the memoized summation instead of
        #: recomputing it (see ``RowEngine.patch``).
        #: Structural dirt in ``_dirty_pids`` always wins over an entry
        #: here.
        self._dirty_vol_rows: Dict[int, Set[int]] = {}
        self._disabled_peerings: Set[int] = set()
        self.last_warm_stats: Optional[WarmSolveStats] = None

    @property
    def model(self) -> RoutingModel:
        return self._model

    @property
    def evaluator(self) -> BenefitEvaluator:
        return self._evaluator

    @property
    def prefix_budget(self) -> int:
        return self._budget

    @property
    def config(self) -> OrchestratorConfig:
        """The resolved configuration this orchestrator runs under."""
        return self._config

    def _row_source(self) -> RowEngine:
        """The row engine, readied for a solve of the world as it is now."""
        if self._engine is None:
            # Materialise every (UG, ingress) slot before the scan starts,
            # so the ranked scan never pays a latency oracle call
            # mid-heap-operation; the engine reads the evaluator's store.
            self._evaluator.precompute_latency_matrix()
            self._engine = RowEngine(self._scenario, self._evaluator, self._model)
        return self._engine.begin_solve(*self._solve_inputs())

    # -- world mutation (the controller's delta surface) ---------------------

    @property
    def disabled_peerings(self) -> FrozenSet[int]:
        return frozenset(self._disabled_peerings)

    @property
    def dirty_peerings(self) -> FrozenSet[int]:
        """Peerings whose marginals the pending deltas can touch."""
        return frozenset(self._dirty_pids) | frozenset(self._dirty_vol_rows)

    def apply_volume_shift(self, ug_id: int, volume: float) -> FrozenSet[int]:
        """Change one UG's traffic volume; returns the dirtied peerings.

        Volumes enter Algorithm 1 only as marginal-benefit weights, never
        as scan state, so the dirty set is exactly the UG's
        policy-compliant ingress set.  The next solve — warm or cold —
        reads the new weight off the UG.  A volume that is negative or not
        finite raises ``ValueError`` before anything changes.
        """
        if not (math.isfinite(volume) and volume >= 0):
            raise ValueError(f"volume must be a finite non-negative number, not {volume!r}")
        row = self._ug_index.get(ug_id)
        if row is None:
            raise KeyError(f"unknown UG id {ug_id}")
        ug = self._scenario.user_groups[row]
        self._scenario.set_ug_volume(ug_id, volume)
        dirty = self._scenario.catalog.ingress_ids(ug)
        # Volume dirt is tracked per (peering, UG row): the affected
        # marginals differ from their memoized values only in the shifted
        # rows' terms, which the next warm solve patches in place of a
        # full recomputation.
        for pid in dirty:
            self._dirty_vol_rows.setdefault(pid, set()).add(row)
        return dirty

    def set_peering_enabled(self, peering_id: int, enabled: bool) -> None:
        """Administratively toggle a peering (session down / back up).

        A disabled peering is excluded from the candidate list of every
        subsequent solve; re-enabling restores it.  Either direction
        dirties the peering.
        """
        self._scenario.deployment.peering(peering_id)  # validate the id
        if enabled:
            self._disabled_peerings.discard(peering_id)
        else:
            self._disabled_peerings.add(peering_id)
        self._dirty_pids.add(peering_id)

    def solve_warm(self, record_curve: bool = False) -> AdvertisementConfig:
        """Re-solve, reusing every marginal the pending deltas cannot touch.

        Produces a configuration **bit-identical** to :meth:`solve` on the
        same (mutated) world: memoized marginals are reused only while the
        replayed accept sequence still matches the recorded one, and only
        for peerings outside the dirty set (see :class:`SolveMemo`).  The
        first call — or any call after a budget/ablation change — records
        a cold solve; every call leaves a fresh memo behind, so steady
        streams of small deltas pay only for what they touched.

        ``last_warm_stats`` reports the reuse accounting of the call.
        """
        dirty = set(self._dirty_pids)
        self._dirty_pids.clear()
        vol_rows = {
            pid: set(rows) for pid, rows in self._dirty_vol_rows.items()
        }
        self._dirty_vol_rows.clear()
        memo = self._memo
        usable = (
            memo is not None
            and memo.budget == self._budget
            and memo.allow_reuse == self._allow_reuse
        )
        learned_rows = frozenset(
            self._ug_index[ug_id]
            for ug_id in self._model.learned_ug_ids
            if ug_id in self._ug_index
        )
        active = frozenset(
            pid for pid in self._candidates if pid not in self._disabled_peerings
        )
        if usable:
            # Defensive dirty expansion: any learned-set or candidate-set
            # drift since the memo was recorded touches the marginals of
            # every peering containing an affected row, whether or not a
            # delta announced it.
            for row in memo.learned_rows ^ learned_rows:
                dirty.update(
                    self._scenario.catalog.ingress_ids(
                        self._scenario.user_groups[row]
                    )
                )
            dirty.update(memo.active_peerings ^ active)
        # Structural dirt supersedes volume dirt: a fully dirty peering is
        # recomputed from scratch, so its row-level entries are moot.
        for pid in dirty:
            vol_rows.pop(pid, None)
        new_memo = SolveMemo(
            budget=self._budget,
            allow_reuse=self._allow_reuse,
            learned_rows=learned_rows,
            active_peerings=active,
        )
        try:
            with TRACER.span("orchestrator.solve_warm", budget=self._budget) as span:
                with METRICS.timed("orchestrator.solve_warm"):
                    source = _WarmSource(
                        self._row_source(),
                        memo if usable else None,
                        new_memo,
                        dirty,
                        vol_rows,
                    )
                    config = self._solve(source, record_curve)
                span.tag("prefixes_used", config.prefix_count)
                span.tag("pairs_used", config.pair_count)
        except BaseException:
            # A failed or interrupted solve must
            # not swallow the dirt it consumed: restore it so a retry —
            # warm or cold — still sees every pending delta.
            self._dirty_pids.update(dirty)
            for pid, rows in vol_rows.items():
                self._dirty_vol_rows.setdefault(pid, set()).update(rows)
            raise
        self._memo = new_memo
        self.last_warm_stats = WarmSolveStats(
            mode="warm" if usable else "cold",
            dirty_peerings=len(dirty) + len(vol_rows),
            reused_evals=source.reused,
            fresh_evals=source.fresh,
            diverged=usable and not source.intact,
            patched_evals=source.patched,
        )
        METRICS.counter("orchestrator.warm_solves").add()
        METRICS.counter("orchestrator.warm_reused_evals").add(source.reused)
        return config

    def forget_memo(self) -> None:
        """Drop the warm-start memo (the next ``solve_warm`` runs cold)."""
        self._memo = None

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release held resources; a no-op kept for ``with`` blocks and
        callers that close what they open."""

    def __enter__(self) -> "PainterOrchestrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- Algorithm 1, middle + inner loops ----------------------------------

    def solve(self, record_curve: bool = False) -> AdvertisementConfig:
        """Greedy allocation of the prefix budget (one outer-loop pass).

        A from-scratch solve that leaves all warm-start state alone: the
        controller's differential guard uses it to cross-check a warm
        solve without consuming the pending dirty set or replacing the
        memo.
        """
        with TRACER.span("orchestrator.solve", budget=self._budget) as span:
            with METRICS.timed("orchestrator.solve"):
                config = self._solve(self._row_source(), record_curve)
            span.tag("prefixes_used", config.prefix_count)
            span.tag("pairs_used", config.pair_count)
            return config

    def _solve_inputs(self) -> Tuple[int, List[int], Tuple[int, ...]]:
        """What a source is built from: the prefix budget, the candidate
        peerings (ascending) and the learned UG ids, as of now."""
        peering_ids = sorted(
            pid for pid in self._candidates if pid not in self._disabled_peerings
        )
        return self._budget, peering_ids, tuple(sorted(self._model.learned_ug_ids))

    def _solve(
        self, source: MarginalSource, record_curve: bool = False
    ) -> AdvertisementConfig:
        """Run the one lazy-greedy driver over ``source`` (which carries
        the candidate ``peering_ids`` it was built from)."""
        n_candidates = len(source.peering_ids)
        if self._budget > n_candidates:
            # An over-budget solve is feasible (extra prefixes simply go
            # unallocated) but almost always a mis-specified experiment, and
            # it would silently skew greedy-vs-ILP comparisons where the
            # selection problem clamps its budget to the candidate count.
            # Surface it loudly instead of under-allocating in silence.
            logger.warning(
                "prefix budget %d exceeds the %d distinct candidate "
                "peerings; at most %d prefixes can be allocated "
                "(optimality comparisons clamp to the candidate count)",
                self._budget,
                n_candidates,
                n_candidates,
            )
            METRICS.counter("orchestrator.budget_over_candidates").add()
            emit_event(
                "budget_over_candidates",
                prefix_budget=self._budget,
                candidate_peerings=n_candidates,
            )
        config, self.budget_curve = lazy_greedy(
            source,
            source.peering_ids,
            self._budget,
            allow_reuse=self._allow_reuse,
            evaluate=self._evaluator.evaluate if record_curve else None,
        )
        return config

    def estimated_iteration_duration_s(self) -> float:
        """How long one real-world learning iteration would take.

        Combines the paper's ~30 s/prefix computation with the
        flap-damping-safe advertisement pacing (§3.1: configurations are
        tested slowly "to avoid route flap damping").
        """
        from repro.bgp.flap_damping import learning_iteration_pacing_s

        return learning_iteration_pacing_s(prefix_count=self._budget)

    # -- Algorithm 1, outer loop -------------------------------------------

    def execute_and_observe(
        self,
        config: AdvertisementConfig,
        faults: Optional["ObservationFaultsLike"] = None,
        iteration: int = 0,
    ) -> ObservationReport:
        """Advertise ``config`` (against ground truth) and learn preferences.

        This is the ``RM <- execute_advertisement(CC)`` step.  ``faults``
        (an :class:`repro.faults.ObservationFaults`, or anything with its
        ``outcome(iteration, ug_id, prefix)`` signature) decides per sample
        whether the observation arrives, goes missing, or is served stale:

        * **missing** — the collector never saw the UG; the sample is
          skipped and counted, never guessed at;
        * **stale** — the collector reports what this UG did under a
          *previous* round's advertisement; the old (advertisement, ingress)
          pair is re-fed to the model softly (no outcome overwrite, no
          eviction of fresher pairs).  With no previous round to replay the
          sample degrades to missing.

        Returns an :class:`ObservationReport`; ``.learned`` is the number of
        new preference pairs (the old integer return value).
        """
        routing = self._scenario.routing
        learned = 0
        observed = 0
        missing = 0
        stale = 0
        touched_ugs: Set[int] = set()
        with TRACER.span(
            "orchestrator.execute_and_observe", iteration=iteration
        ) as obs_span:
            timer = METRICS.timer("orchestrator.execute_and_observe")
            start = time.perf_counter()
            for ug in self._scenario.user_groups:
                for prefix in config.prefixes:
                    advertised = config.peerings_for(prefix)
                    if not self._scenario.catalog.compliant_subset(ug, advertised):
                        continue
                    actual = routing.ingress_for(ug, advertised)
                    if actual is None:
                        continue
                    outcome = (
                        faults.outcome(iteration, ug.ug_id, prefix)
                        if faults is not None
                        else "ok"
                    )
                    cache_key = (ug.ug_id, prefix)
                    if outcome == "missing":
                        missing += 1
                        continue
                    if outcome == "stale":
                        previous = self._last_seen.get(cache_key)
                        if previous is None:
                            missing += 1  # nothing older to serve: a gap, not a lie
                            continue
                        old_advertised, old_actual = previous
                        learned += self._model.observe(
                            ug, old_advertised, old_actual, stale=True
                        )
                        touched_ugs.add(ug.ug_id)
                        stale += 1
                        continue
                    learned += self._model.observe(ug, advertised, actual.peering_id)
                    touched_ugs.add(ug.ug_id)
                    self._last_seen[cache_key] = (advertised, actual.peering_id)
                    observed += 1
            timer.add(time.perf_counter() - start)
            if touched_ugs:
                # Warm-start dirty tracking: learning changed the model's view
                # of these UGs, so every peering that can serve them must be
                # re-evaluated by the next warm solve.
                catalog = self._scenario.catalog
                for ug_id in touched_ugs:
                    row = self._ug_index.get(ug_id)
                    if row is not None:
                        self._dirty_pids.update(
                            catalog.ingress_ids(self._scenario.user_groups[row])
                        )
            obs_span.tag("observed", observed)
            obs_span.tag("missing", missing)
            obs_span.tag("stale", stale)
        emit_event(
            "measurement_round",
            iteration=iteration,
            learned=learned,
            observed=observed,
            missing=missing,
            stale=stale,
        )
        return ObservationReport(
            learned=learned, observed=observed, missing=missing, stale=stale
        )

    def learn(
        self,
        iterations: int = 4,
        stop_threshold: float = 0.0,
        record_curve: bool = False,
        faults: Optional["ObservationFaultsLike"] = None,
    ) -> LearningResult:
        """Run the outer learning loop for up to ``iterations`` rounds.

        ``stop_threshold`` terminates early when the marginal realized-benefit
        increase falls below the given fraction (the paper terminates "when
        little marginal benefit increase" remains).

        ``faults`` injects observation degradation (see
        :meth:`execute_and_observe`); the loop completes regardless of how
        many observations a round loses — missing rounds simply learn less
        and carry a wider uncertainty band.
        """
        if iterations < 1:
            raise ValueError("need at least one iteration")
        result = LearningResult()
        previous_benefit: Optional[float] = None
        with TRACER.span("orchestrator.learn", iterations=iterations) as learn_span:
            for iteration in range(iterations):
                with TRACER.span(
                    "orchestrator.iteration", iteration=iteration
                ) as iter_span:
                    config = self.solve(record_curve=record_curve)
                    evaluation = self._evaluator.evaluate(config)
                    expected = self._evaluator.expected_benefit(config)
                    emit_event(
                        "advertisement",
                        iteration=iteration,
                        prefixes=config.prefix_count,
                        pairs=config.pair_count,
                        expected_benefit=expected,
                    )
                    report = self.execute_and_observe(
                        config, faults=faults, iteration=iteration
                    )
                    realized = realized_benefit(self._scenario, config)
                    emit_event(
                        "iteration_result",
                        iteration=iteration,
                        realized_benefit=realized,
                        new_preferences=report.learned,
                    )
                    result.iterations.append(
                        IterationRecord(
                            iteration=iteration,
                            config=config,
                            expected_benefit=expected,
                            realized_benefit=realized,
                            upper_benefit=evaluation.upper,
                            estimated_benefit=evaluation.estimated,
                            lower_benefit=evaluation.lower,
                            new_preferences=report.learned,
                            observations_observed=report.observed,
                            observations_missing=report.missing,
                            observations_stale=report.stale,
                        )
                    )
                    logger.info(
                        "learning iteration %d: %s, realized benefit %.3f, "
                        "%d new preferences (%d observed, %d missing, %d stale)",
                        iteration,
                        config,
                        realized,
                        report.learned,
                        report.observed,
                        report.missing,
                        report.stale,
                    )
                    iter_span.tag("realized_benefit", realized)
                if previous_benefit is not None and stop_threshold > 0:
                    gain = realized - previous_benefit
                    if gain <= stop_threshold * max(previous_benefit, EPSILON_BENEFIT):
                        break
                previous_benefit = realized
            learn_span.tag("iterations_run", len(result.iterations))
        return result
