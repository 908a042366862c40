"""The Advertisement Orchestrator: Algorithm 1 plus the learning loop.

Greedy structure follows the paper's pseudocode exactly:

* outer loop — learning iterations: solve, execute the advertisement against
  ground truth, observe which ingresses UGs actually used, fold the
  observations into the routing model, repeat;
* middle loop — one prefix at a time from the budget;
* inner loop — advertise the current prefix via as many peerings as provide
  positive marginal benefit (prefix reuse), considered in ranked order of
  estimated improvement (Eq. 2).

The implementation accelerates the ranked scan with lazy re-evaluation
(stale marginals are recomputed only when they reach the top of the heap),
mirroring the paper's note that "UGs tend to have paths via a relatively
small fraction of ingresses, speeding up computation".
"""

from __future__ import annotations

import heapq
import logging
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.advertisement import AdvertisementConfig
from repro.core.benefit import BenefitEvaluator, LatencyFn, realized_benefit
from repro.core.routing_model import DEFAULT_D_REUSE_KM, RoutingModel
from repro.kernels import ComputeBackend
from repro.perf import PERF
from repro.scenario import Scenario
from repro.telemetry import TRACER, emit_event
from repro.usergroups.usergroup import UserGroup

#: Marginal benefit below this (volume-weighted ms) counts as "no benefit".
EPSILON_BENEFIT = 1e-9
#: UG-rows × peering-columns slot count at which
#: ``OrchestratorConfig.dense_matrices=None`` flips to the dense layout.
#: Far above every classic preset (azure ≈ 1M slots) and far below the
#: ``mega`` preset (≈ 200M slots), so only genuinely large worlds switch.
DENSE_AUTO_SLOTS = 32_000_000
#: Histogram buckets for accepted marginal benefits (volume-weighted ms).
_BENEFIT_BUCKETS = (
    0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class OrchestratorConfig:
    """Everything that parameterizes one :class:`PainterOrchestrator`.

    Replaces the growing positional signature
    (``prefix_budget, d_reuse_km, latency_of, allow_reuse``); construct with
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
    #: Intra-solve parallelism: shard marginal evaluations across this many
    #: persistent fork workers (``repro.parallel``).  ``0`` or ``1`` solves
    #: serially.  Results are bit-identical for every worker count; on any
    #: worker failure the solve falls back to the serial path.
    workers: int = 0
    #: Per-message worker-pool timeout in seconds; ``None`` uses the pool
    #: default (``repro.parallel.pool.DEFAULT_TIMEOUT_S``).
    worker_timeout_s: Optional[float] = None
    #: After a pool failure trips the serial-fallback breaker, retry the
    #: parallel path once this many consecutive solves have run serially.
    #: ``0`` keeps the pre-existing behavior: broken stays broken forever.
    parallel_retry_solves: int = 3
    #: Compute backend for the marginal-evaluation kernels: a registry name
    #: (``"auto"``, ``"numpy"``, ``"numba"``, ``"cupy"``) or a
    #: :class:`repro.kernels.ComputeBackend` instance.  ``"auto"`` picks the
    #: best available; an explicitly named backend that is missing or fails
    #: to compile degrades to the numpy reference with a recorded fallback
    #: (``kernels.fallbacks`` counter + ``backend_fallback`` event).  Every
    #: backend is bit-identical to numpy by construction — see
    #: :mod:`repro.kernels`.
    backend: Union[str, ComputeBackend] = "auto"
    #: Dense-matrix mode for very large worlds: ``None`` enables it
    #: automatically when the UG×peering slot count reaches
    #: ``DENSE_AUTO_SLOTS``; ``True``/``False`` force it on/off.  When on,
    #: the evaluator materializes flat float64 latency/distance matrices
    #: (chunked fill, memo trimming) instead of per-UG Python rows — the
    #: layout that lets the ``mega`` preset fit in memory.
    dense_matrices: Optional[bool] = None
    #: Optional byte budget for the two dense matrices; exceeded budgets
    #: raise ``MemoryBudgetExceeded`` before allocation.
    dense_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.prefix_budget < 1:
            raise ValueError("prefix budget must be at least 1")
        if self.d_reuse_km < 0:
            raise ValueError("d_reuse_km must be non-negative")
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.worker_timeout_s is not None and self.worker_timeout_s <= 0:
            raise ValueError("worker_timeout_s must be positive")
        if self.parallel_retry_solves < 0:
            raise ValueError("parallel_retry_solves must be non-negative")
        if not isinstance(self.backend, (str, ComputeBackend)):
            raise ValueError(
                "backend must be a registry name or a ComputeBackend instance"
            )
        if self.dense_budget_bytes is not None and self.dense_budget_bytes < 1:
            raise ValueError("dense_budget_bytes must be positive")


def _coerce_orchestrator_config(
    config: Optional[Union[OrchestratorConfig, int]],
    prefix_budget: Optional[int],
    d_reuse_km: Optional[float],
    latency_of: Optional[LatencyFn],
    allow_reuse: Optional[bool],
) -> OrchestratorConfig:
    """Resolve the new-style config and the deprecated keyword form."""
    legacy_used = any(
        value is not None
        for value in (prefix_budget, d_reuse_km, latency_of, allow_reuse)
    )
    if isinstance(config, OrchestratorConfig):
        if legacy_used:
            raise TypeError(
                "pass either an OrchestratorConfig or the legacy keyword "
                "arguments, not both"
            )
        return config
    if isinstance(config, int):
        # Legacy positional budget: PainterOrchestrator(scenario, 10).
        warnings.warn(
            "PainterOrchestrator(scenario, prefix_budget, ...) is deprecated; "
            "use PainterOrchestrator(scenario, OrchestratorConfig(...))",
            DeprecationWarning,
            stacklevel=3,
        )
        if prefix_budget is not None:
            raise TypeError("prefix budget given both positionally and by keyword")
        prefix_budget = config
    elif config is None:
        if prefix_budget is None:
            raise TypeError(
                "PainterOrchestrator needs an OrchestratorConfig "
                "(or the deprecated prefix_budget keyword)"
            )
        warnings.warn(
            "the PainterOrchestrator(scenario, prefix_budget=..., ...) keyword "
            "form is deprecated; use "
            "PainterOrchestrator(scenario, OrchestratorConfig(...))",
            DeprecationWarning,
            stacklevel=3,
        )
    else:
        raise TypeError(f"config must be an OrchestratorConfig, not {type(config)!r}")
    kwargs = {"prefix_budget": prefix_budget}
    if d_reuse_km is not None:
        kwargs["d_reuse_km"] = d_reuse_km
    if latency_of is not None:
        kwargs["latency_of"] = latency_of
    if allow_reuse is not None:
        kwargs["allow_reuse"] = allow_reuse
    return OrchestratorConfig(**kwargs)


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
    #: Per-refresh summation breakdown keyed like ``refresh``:
    #: ``(contrib_vector, learned_terms)`` where ``contrib_vector`` is the
    #: per-row contribution array of the vectorized path (shrink rows hold
    #: their exact scalar term) and ``learned_terms`` the ordered scalar
    #: additions of the learned loop.  A volume shift changes only the
    #: shifted UG's entries, so the next warm solve can substitute those
    #: rows and re-run the *same* float summation — bit-equal to a full
    #: recomputation at a tiny fraction of the cost (see the volume-patch
    #: path in ``_solve``).
    detail: Dict[Tuple[int, int], tuple] = field(default_factory=dict)


@dataclass
class SolveMemo:
    """A recorded solve, replayable by :meth:`PainterOrchestrator.solve_warm`.

    Warm-start soundness rests on one invariant: every marginal is a pure
    function of (the accept sequence so far, the peering's static
    latency/distance arrays, the volumes of the peering's affected UGs).
    The scan state (``d0``/``csum``/``ccnt``/``ob``/``exp_np``) is
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


@dataclass(frozen=True)
class BudgetPoint:
    """Benefit snapshot after the k-th prefix was fully allocated."""

    prefixes_used: int
    pairs_used: int
    estimated_benefit: float
    upper_benefit: float
    lower_benefit: float
    mean_benefit: float


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
        config: Optional[Union[OrchestratorConfig, int]] = None,
        *,
        model: Optional[RoutingModel] = None,
        prefix_budget: Optional[int] = None,
        d_reuse_km: Optional[float] = None,
        latency_of: Optional[LatencyFn] = None,
        allow_reuse: Optional[bool] = None,
    ) -> None:
        config = _coerce_orchestrator_config(
            config,
            prefix_budget=prefix_budget,
            d_reuse_km=d_reuse_km,
            latency_of=latency_of,
            allow_reuse=allow_reuse,
        )
        self._scenario = scenario
        self._config = config
        self._budget = config.prefix_budget
        self._model = model or RoutingModel(
            scenario.catalog, d_reuse_km=config.d_reuse_km
        )
        self._evaluator = BenefitEvaluator(
            scenario, self._model, latency_of=config.latency_of,
            backend=config.backend,
        )
        self._affected: Dict[int, List[UserGroup]] = self._invert_catalog()
        self._allow_reuse = config.allow_reuse
        self.budget_curve: List[BudgetPoint] = []
        #: Freshest observation per (ug_id, prefix) — what a lagging
        #: collector replays when fault injection serves stale data.
        self._last_seen: Dict[Tuple[int, int], Tuple[FrozenSet[int], int]] = {}
        #: Static per-peering evaluation arrays (built on first solve):
        #: affected-UG row indices, volumes, and latencies.  Latencies and
        #: the catalog are immutable, so these never need invalidation.
        self._ug_index: Dict[int, int] = {
            ug.ug_id: i for i, ug in enumerate(scenario.user_groups)
        }
        self._aff_rows: Optional[Dict[int, List[int]]] = None
        self._aff_idx: Dict[int, "np.ndarray"] = {}
        self._aff_vol: Dict[int, "np.ndarray"] = {}
        self._aff_lat: Dict[int, "np.ndarray"] = {}
        self._aff_dist: Dict[int, "np.ndarray"] = {}
        #: Parallel-solve state: the lazily created worker pool wrapper, a
        #: finalizer that reaps it if the orchestrator is garbage-collected
        #: unclosed, and a breaker that pins the orchestrator to the serial
        #: path after a pool failure (with an optional retry budget — see
        #: ``OrchestratorConfig.parallel_retry_solves``).
        self._parallel = None
        self._parallel_finalizer = None
        self._parallel_broken = False
        self._solves_since_break = 0
        #: Warm-start state: the memo of the last recorded solve, the set
        #: of peerings a world mutation has dirtied since, peerings taken
        #: administratively down, and a generation counter forked worker
        #: pools compare against (mutations invalidate forked snapshots).
        self._memo: Optional[SolveMemo] = None
        self._dirty_pids: Set[int] = set()
        #: Volume-only dirt, tracked per peering at UG-row granularity: a
        #: volume shift changes marginal *weights* but no scan state, so
        #: the next warm solve can patch the memoized summation instead of
        #: recomputing it (see the volume-patch path in ``_solve``).
        #: Structural dirt in ``_dirty_pids`` always wins over an entry
        #: here.
        self._dirty_vol_rows: Dict[int, Set[int]] = {}
        self._disabled_peerings: Set[int] = set()
        self._world_epoch = 0
        #: Cached learned-rows split of the static arrays (keyed by the
        #: learned-row set): rebuilding it is a Python loop over every
        #: (peering, UG) pair, which would dominate warm re-solves.
        self._split_cache = None
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

    def _invert_catalog(self) -> Dict[int, List[UserGroup]]:
        affected: Dict[int, List[UserGroup]] = {}
        for ug in self._scenario.user_groups:
            for pid in self._scenario.catalog.ingress_ids(ug):
                affected.setdefault(pid, []).append(ug)
        return affected

    def _use_dense_matrices(self) -> bool:
        """Should this world use the backend's dense-matrix layout?"""
        mode = self._config.dense_matrices
        if mode is not None:
            return bool(mode)
        n_slots = len(self._scenario.user_groups) * len(
            self._scenario.deployment.peerings
        )
        return n_slots >= DENSE_AUTO_SLOTS

    def _ensure_affected_arrays(self, vol_arr: "np.ndarray") -> None:
        """Build the static per-peering arrays the vectorized scan uses."""
        if self._aff_rows is not None:
            return
        evaluator = self._evaluator
        model = self._model
        ug_index = self._ug_index
        backend = evaluator.backend
        lat_mat = backend.latency_matrix
        dist_mat = backend.distance_matrix
        dense = lat_mat is not None and dist_mat is not None
        col_of = evaluator.peering_columns if dense else None
        self._aff_rows = {}
        for pid, affected in self._affected.items():
            rows = [ug_index[ug.ug_id] for ug in affected]
            self._aff_rows[pid] = rows
            idx = np.array(rows, dtype=np.intp)
            self._aff_idx[pid] = idx
            self._aff_vol[pid] = vol_arr[idx]
            if dense:
                # Vectorized gather from the materialized matrices: the
                # stored doubles are the oracle values bit-for-bit (the
                # dense encoding maps None↔+inf), so this produces exactly
                # the arrays the per-pair path below would.
                col = col_of[pid]
                lat = lat_mat[idx, col]
                unfilled = np.isnan(lat)
                if unfilled.any():
                    # Slots outside the materialized set: fall back to the
                    # per-pair oracle for just those rows.
                    for pos in np.nonzero(unfilled)[0]:
                        value = evaluator.latency(affected[int(pos)], pid)
                        lat[pos] = np.nan if value is None else value
                lat[np.isinf(lat)] = np.nan
                self._aff_lat[pid] = lat
                self._aff_dist[pid] = dist_mat[idx, col]
            else:
                lats = evaluator.latencies_for(pid, affected)
                self._aff_lat[pid] = np.array(
                    [np.nan if lat is None else lat for lat in lats]
                )
                self._aff_dist[pid] = np.array(
                    [model.distance_km(ug, pid) for ug in affected]
                )

    def _learned_split(self, learned_rows: Set[int]):
        """Static arrays split into vectorized (unlearned) and exact parts.

        Cached by learned-row set: the split is a Python loop over every
        (peering, UG) pair, far too slow to repeat on every warm re-solve
        when the learned set has not moved.  Volume mutations patch the
        cached arrays in place (see :meth:`apply_volume_shift`).
        """
        if not learned_rows:
            return (
                self._aff_idx,
                self._aff_vol,
                self._aff_lat,
                self._aff_dist,
                {},
            )
        key = frozenset(learned_rows)
        cached = self._split_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        build_idx: Dict[int, "np.ndarray"] = {}
        build_vol: Dict[int, "np.ndarray"] = {}
        build_lat: Dict[int, "np.ndarray"] = {}
        build_dist: Dict[int, "np.ndarray"] = {}
        learned_aff: Dict[int, List[Tuple[UserGroup, int]]] = {}
        masks: Dict[int, "np.ndarray"] = {}
        for pid, affected in self._affected.items():
            rows = self._aff_rows[pid]
            keep = np.array(
                [row not in learned_rows for row in rows], dtype=bool
            )
            if keep.all():
                build_idx[pid] = self._aff_idx[pid]
                build_vol[pid] = self._aff_vol[pid]
                build_lat[pid] = self._aff_lat[pid]
                build_dist[pid] = self._aff_dist[pid]
            else:
                masks[pid] = keep
                build_idx[pid] = self._aff_idx[pid][keep]
                build_vol[pid] = self._aff_vol[pid][keep]
                build_lat[pid] = self._aff_lat[pid][keep]
                build_dist[pid] = self._aff_dist[pid][keep]
                learned_aff[pid] = [
                    (ug, row)
                    for ug, row in zip(affected, rows)
                    if row in learned_rows
                ]
        arrays = (build_idx, build_vol, build_lat, build_dist, learned_aff)
        self._split_cache = (key, arrays, masks)
        return arrays

    # -- world mutation (the controller's delta surface) ---------------------

    @property
    def world_epoch(self) -> int:
        """Generation counter bumped by every world mutation."""
        return self._world_epoch

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
        policy-compliant ingress set.  All cached volume arrays (the
        static per-peering arrays and the learned-split cache) are patched
        in place so the next solve — warm or cold — sees the new weights.
        """
        if volume < 0:
            raise ValueError("volume must be non-negative")
        row = self._ug_index.get(ug_id)
        if row is None:
            raise KeyError(f"unknown UG id {ug_id}")
        ug = self._scenario.user_groups[row]
        self._scenario.set_ug_volume(ug_id, volume)
        dirty = self._scenario.catalog.ingress_ids(ug)
        if self._aff_rows is not None:
            for pid in dirty:
                idx = self._aff_idx.get(pid)
                if idx is None:
                    continue
                self._aff_vol[pid][idx == row] = volume
            if self._split_cache is not None:
                _, arrays, masks = self._split_cache
                build_vol = arrays[1]
                for pid in dirty:
                    mask = masks.get(pid)
                    if mask is not None and pid in build_vol:
                        # Masked splits are copies; all-keep splits alias
                        # ``_aff_vol`` and were patched in place above.
                        build_vol[pid] = self._aff_vol[pid][mask]
        # Volume dirt is tracked per (peering, UG row): the affected
        # marginals differ from their memoized values only in the shifted
        # rows' terms, which the next warm solve patches in place of a
        # full recomputation.
        for pid in dirty:
            self._dirty_vol_rows.setdefault(pid, set()).add(row)
        self._world_epoch += 1
        return dirty

    def set_peering_enabled(self, peering_id: int, enabled: bool) -> None:
        """Administratively toggle a peering (session down / back up).

        A disabled peering is excluded from the candidate list of every
        subsequent solve; re-enabling restores it.  Either direction
        dirties the peering and bumps the world epoch (forked worker pools
        hold the candidate list frozen, so they must be rebuilt).
        """
        self._scenario.deployment.peering(peering_id)  # validate the id
        if enabled:
            self._disabled_peerings.discard(peering_id)
        else:
            self._disabled_peerings.add(peering_id)
        self._dirty_pids.add(peering_id)
        self._world_epoch += 1

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
        if usable:
            # Defensive dirty expansion: any learned-set or candidate-set
            # drift since the memo was recorded touches the marginals of
            # every peering containing an affected row, whether or not a
            # delta announced it.
            current_learned = frozenset(
                self._ug_index[ug_id]
                for ug_id in self._model.learned_ug_ids
                if ug_id in self._ug_index
            )
            for row in memo.learned_rows ^ current_learned:
                dirty.update(
                    self._scenario.catalog.ingress_ids(
                        self._scenario.user_groups[row]
                    )
                )
            active = frozenset(
                pid
                for pid in self._affected
                if pid not in self._disabled_peerings
            )
            dirty.update(memo.active_peerings ^ active)
        # Structural dirt supersedes volume dirt: a fully dirty peering is
        # recomputed from scratch, so its row-level entries are moot.
        for pid in dirty:
            vol_rows.pop(pid, None)
        new_memo = SolveMemo()
        try:
            with TRACER.span(
                "orchestrator.solve_warm",
                budget=self._budget,
                backend=self._evaluator.backend.name,
            ) as span:
                with PERF.timed("orchestrator.solve_warm"):
                    config = self._solve(
                        record_curve=record_curve,
                        memo_in=memo if usable else None,
                        memo_out=new_memo,
                        dirty=dirty,
                        vol_rows=vol_rows,
                    )
                span.tag("prefixes_used", config.prefix_count)
                span.tag("pairs_used", config.pair_count)
        except BaseException:
            # An interrupted solve (watchdog timeout, worker failure) must
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
            reused_evals=self._last_reused,
            fresh_evals=self._last_fresh,
            diverged=self._last_diverged,
            patched_evals=self._last_patched,
        )
        PERF.counter("orchestrator.warm_solves").add()
        PERF.counter("orchestrator.warm_reused_evals").add(self._last_reused)
        return config

    def forget_memo(self) -> None:
        """Drop the warm-start memo (the next ``solve_warm`` runs cold)."""
        self._memo = None

    def solve_cold(self) -> AdvertisementConfig:
        """A from-scratch serial solve leaving all warm-start state alone.

        The controller's differential guard uses this to cross-check a
        warm solve without consuming the pending dirty set or replacing
        the memo.
        """
        with TRACER.span("orchestrator.solve_cold", budget=self._budget):
            with PERF.timed("orchestrator.solve_cold"):
                return self._solve()

    # -- parallel-solve lifecycle -------------------------------------------

    def close(self) -> None:
        """Release the solve worker pool (if one was created)."""
        self._teardown_parallel()

    def __enter__(self) -> "PainterOrchestrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _teardown_parallel(self, mark_broken: bool = False) -> None:
        if mark_broken:
            self._parallel_broken = True
            self._solves_since_break = 0
        solver = self._parallel
        self._parallel = None
        finalizer = self._parallel_finalizer
        self._parallel_finalizer = None
        if finalizer is not None:
            finalizer.detach()
        if solver is not None:
            try:
                solver.close()
            except Exception:  # pragma: no cover - teardown best-effort
                logger.debug("parallel solver teardown failed", exc_info=True)

    def _ensure_parallel(self, n_workers: int):
        """The lazily forked :class:`repro.parallel.ParallelSolver` (or None)."""
        solver = self._parallel
        if solver is not None:
            if (
                solver.n_workers == n_workers
                and solver.pool.alive()
                and solver.world_epoch == self._world_epoch
            ):
                return solver
            # Worker died between solves (chaos kill), the count changed,
            # or a world mutation (volume shift, peering toggle) outdated
            # the forked snapshots: rebuild.  Forking from the current
            # state is safe — workers never consult their inherited
            # model's learned set, only the set the parent broadcasts at
            # each solve's prep.
            self._teardown_parallel()
        import repro.parallel as parallel_mod

        if not parallel_mod.parallel_enabled():
            return None
        kwargs = {}
        if self._config.worker_timeout_s is not None:
            kwargs["timeout_s"] = self._config.worker_timeout_s
        try:
            import weakref

            solver = parallel_mod.ParallelSolver(self, n_workers, **kwargs)
        except (parallel_mod.WorkerPoolError, OSError, ValueError) as exc:
            logger.warning(
                "parallel solver unavailable (%s); solving serially", exc
            )
            self._parallel_broken = True
            return None
        self._parallel = solver
        self._parallel_finalizer = weakref.finalize(self, solver.close)
        return solver

    # -- Algorithm 1, middle + inner loops ----------------------------------

    def solve(
        self, record_curve: bool = False, workers: Optional[int] = None
    ) -> AdvertisementConfig:
        """Greedy allocation of the prefix budget (one outer-loop pass).

        Parallelism and the compute backend are configured once on
        :class:`OrchestratorConfig` (``workers=``, ``backend=``); any value
        of ``workers`` above 1 shards the marginal evaluations across a
        persistent fork pool (``repro.parallel``) with bit-identical
        results, and worker failure falls back to the serial path.  The
        per-call ``workers=`` override is deprecated.
        """
        if workers is not None:
            warnings.warn(
                "solve(workers=...) is deprecated; set "
                "OrchestratorConfig(workers=...) instead",
                DeprecationWarning,
                stacklevel=2,
            )
        with TRACER.span(
            "orchestrator.solve",
            budget=self._budget,
            backend=self._evaluator.backend.name,
        ) as span:
            with PERF.timed("orchestrator.solve"):
                config = self._solve_dispatch(record_curve, workers)
            span.tag("prefixes_used", config.prefix_count)
            span.tag("pairs_used", config.pair_count)
            return config

    def _breaker_allows_parallel(self) -> bool:
        """Has the serial-fallback breaker cooled down enough to retry?"""
        if not self._parallel_broken:
            return True
        retry = self._config.parallel_retry_solves
        if retry <= 0:
            return False  # broken stays broken (legacy behavior)
        self._solves_since_break += 1
        if self._solves_since_break > retry:
            # Probe solve: re-arm the parallel path.  If the pool fails
            # again the fallback handler re-trips the breaker and the
            # cooldown restarts from zero.
            self._parallel_broken = False
            self._solves_since_break = 0
            return True
        return False

    def _solve_dispatch(
        self, record_curve: bool, workers: Optional[int]
    ) -> AdvertisementConfig:
        n_workers = self._config.workers if workers is None else workers
        # Disabled peerings force the serial path: forked workers hold the
        # candidate peering list frozen from fork time, and the serial
        # solve is the one place the exclusion is applied authoritatively.
        if (
            n_workers > 1
            and not self._disabled_peerings
            and self._breaker_allows_parallel()
        ):
            solver = self._ensure_parallel(n_workers)
            if solver is not None:
                from repro.parallel import WorkerPoolError

                try:
                    return solver.solve(record_curve=record_curve)
                except WorkerPoolError as exc:
                    # Graceful degradation: the sharded solve is
                    # deterministic, so re-running serially from scratch
                    # produces exactly the configuration the pool would
                    # have.  The breaker keeps later solves serial too —
                    # a dead pool does not come back mid-experiment.
                    logger.warning(
                        "parallel solve failed (%s); falling back to serial",
                        exc,
                    )
                    PERF.counter("parallel.fallbacks").add()
                    emit_event(
                        "parallel_fallback",
                        reason=str(exc),
                        workers=solver.n_workers,
                    )
                    self._teardown_parallel(mark_broken=True)
        return self._solve(record_curve=record_curve)

    def _solve(
        self,
        record_curve: bool = False,
        *,
        memo_in: Optional[SolveMemo] = None,
        memo_out: Optional[SolveMemo] = None,
        dirty: FrozenSet[int] = frozenset(),
        vol_rows: Optional[Dict[int, Set[int]]] = None,
    ) -> AdvertisementConfig:
        if vol_rows is None:
            vol_rows = {}
        scenario = self._scenario
        evaluator = self._evaluator
        config = AdvertisementConfig()
        self.budget_curve = []
        PERF.counter("orchestrator.solve_calls").add()
        marginal_evals = PERF.counter("orchestrator.marginal_evals")
        naive_evals = PERF.counter("orchestrator.naive_marginal_evals")
        repushes = PERF.counter("orchestrator.heap_repushes")
        marginal_hist = PERF.histogram(
            "orchestrator.marginal_benefit", _BENEFIT_BUCKETS
        )
        # Fill the UG×peering latency store up front so the ranked scan
        # below never pays a latency_of call mid-heap-operation.  Large
        # worlds (see DENSE_AUTO_SLOTS) materialize flat float64 matrices
        # on the compute backend instead of per-UG Python rows; with a
        # dense matrix already bound (parallel fill or an earlier
        # materialization) the row precompute would only duplicate it, so
        # it is skipped — unfilled slots fall back per lookup to the same
        # deterministic oracle.
        if self._use_dense_matrices():
            evaluator.materialize_latency_matrices(
                budget_bytes=self._config.dense_budget_bytes
            )
        if evaluator.backend.latency_matrix is None:
            evaluator.precompute_latency_matrix()

        ugs = scenario.user_groups
        n_ugs = len(ugs)
        model = self._model
        anycast_arr = np.array(
            [scenario.anycast_latency_ms(ug) for ug in ugs]
        )
        vol_list = [ug.volume for ug in ugs]
        vol_arr = np.array(vol_list)
        self._ensure_affected_arrays(vol_arr)
        fast_queries = PERF.counter("evaluator.scan_fast_queries")

        # Expected latency per (UG row, prefix); +inf where the prefix is
        # unusable for the UG (None), so row minima need no masking.
        exp_np = np.full((n_ugs, self._budget), np.inf)

        # Per-solve fast/slow split: the vectorized heap build covers UGs
        # whose predictions are pure distance pruning; UGs with learned
        # state go through the exact (memoized) Eq.-2 path.
        learned_rows = {
            self._ug_index[ug_id]
            for ug_id in model.learned_ug_ids
            if ug_id in self._ug_index
        }
        build_idx, build_vol, build_lat, build_dist, learned_aff = (
            self._learned_split(learned_rows)
        )

        all_peering_ids = sorted(
            pid
            for pid in self._affected
            if pid not in self._disabled_peerings
        )
        if self._budget > len(all_peering_ids):
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
                len(all_peering_ids),
                len(all_peering_ids),
            )
            PERF.counter("orchestrator.budget_over_candidates").add()
            emit_event(
                "budget_over_candidates",
                prefix_budget=self._budget,
                candidate_peerings=len(all_peering_ids),
            )

        # Warm-start replay state (see SolveMemo): while ``intact``, the
        # accept sequence still matches the memo and clean-peering values
        # may be reused verbatim.
        intact = memo_in is not None
        reused_evals = 0
        fresh_evals = 0
        patched_evals = 0
        if memo_out is not None:
            memo_out.budget = self._budget
            memo_out.allow_reuse = self._allow_reuse
            memo_out.learned_rows = frozenset(learned_rows)
            memo_out.active_peerings = frozenset(all_peering_ids)

        for prefix in range(self._budget):
            # Manual enter/exit keeps the 200-line loop body unindented;
            # while tracing is disabled both calls hit the shared no-op.
            scan_cm = TRACER.span("orchestrator.prefix_scan", prefix=prefix)
            scan_span = scan_cm.__enter__()
            advertised: Set[int] = set()
            # Replay bookkeeping: the memo's record of this prefix (while
            # intact) and the record being written for the next warm solve.
            pmemo_in: Optional[_PrefixMemo] = None
            if intact:
                if prefix < len(memo_in.prefixes):
                    pmemo_in = memo_in.prefixes[prefix]
                else:
                    intact = False  # the memo solve stopped earlier than us
            pmemo_out: Optional[_PrefixMemo] = None
            if memo_out is not None:
                pmemo_out = _PrefixMemo()
                memo_out.prefixes.append(pmemo_out)
            # Incremental Eq.-2 session: marginal queries against the
            # growing accepted set cost a binary search for unlearned UGs
            # instead of a full candidate-set rebuild.
            scan = evaluator.begin_prefix_scan()
            # Best latency each UG gets from anycast or *another* prefix.
            # Fixed for the whole inner loop: accepts only change the
            # current prefix's expected latencies, which are excluded —
            # the reason the old per-accept base-cache clear was wasted
            # work (exp_np[:, prefix] is still all-inf when this runs).
            base_np = np.minimum(anycast_arr, exp_np.min(axis=1)) if n_ugs else anycast_arr
            base_list = base_np.tolist()
            # Expected latency of the current prefix per UG row (None until
            # a compliant peering is accepted).
            cur_p: List[Optional[float]] = [None] * n_ugs
            # Numpy mirror of the PrefixScan state for unlearned UGs, so a
            # refresh marginal is a handful of array ops instead of one
            # bisect per affected UG:
            #   d0_arr    closest accepted distance (inf while none kept)
            #   csum_arr  sum of measurable kept-set latencies
            #   ccnt_arr  count of measurable kept-set latencies
            #   ob_arr    min(base, current expected) — the UG's best today
            d_reuse = model.d_reuse_km
            d0_arr = np.full(n_ugs, np.inf)
            csum_arr = np.zeros(n_ugs)
            ccnt_arr = np.zeros(n_ugs)
            ob_arr = base_np.copy()
            backend = evaluator.backend

            def marginal(peering_id: int) -> Tuple[float, tuple]:
                """Fresh marginal plus its summation detail.

                The detail — the per-row contribution vector (shrink rows
                hold their exact scalar term) and the ordered learned-loop
                terms — lets a later warm solve whose only dirt on this
                peering is a volume shift substitute the shifted rows and
                replay the identical float summation (bit-equal result)
                without re-running the vectorized scan.
                """
                marginal_evals.add()
                idx = build_idx[peering_id]
                dist = build_dist[peering_id]
                lat = build_lat[peering_id]
                # The fused elementwise pipeline (reuse-window shrink test,
                # kept-set mean update, best-latency improvement) runs on
                # the compute backend; rows where the reuse window shrinks
                # come back zeroed and are recomputed exactly below.  Every
                # backend returns bit-identical elements (the kernels are
                # reduction-free — see repro.kernels), so the contrib.sum()
                # reduction below is the same float for all of them.
                contrib, shrink = backend.refresh_contrib(
                    dist,
                    lat,
                    build_vol[peering_id],
                    d0_arr[idx],
                    csum_arr[idx],
                    ccnt_arr[idx],
                    ob_arr[idx],
                    base_np[idx],
                    d_reuse,
                )
                fast_queries.value += len(lat)
                # Shrink rows get their exact scalar term scattered back
                # into the contribution vector (rather than added to a
                # running scalar): the whole unlearned part then reduces in
                # one numpy sum, which a later volume patch can reproduce
                # bit-for-bit by substituting the shifted elements and
                # re-running the identical pairwise reduction.
                if shrink.any():
                    for pos in np.nonzero(shrink)[0]:
                        row = int(idx[pos])
                        ug = ugs[row]
                        ob_s = ob_arr[row]
                        new_p_s = scan.query(ug, peering_id)
                        if new_p_s is None:
                            continue
                        base_s = base_list[row]
                        new_best_s = new_p_s if new_p_s < base_s else base_s
                        contrib[pos] = vol_list[row] * (ob_s - new_best_s)
                delta = float(contrib.sum())
                learned_terms: List[float] = []
                for ug, row in learned_aff.get(peering_id, ()):
                    base_s = base_list[row]
                    old_p = cur_p[row]
                    old_best = (
                        base_s if old_p is None or base_s < old_p else old_p
                    )
                    new_p_s = scan.query(ug, peering_id)
                    if new_p_s is None:
                        new_best_s = old_best
                    elif new_p_s < base_s:
                        new_best_s = new_p_s
                    else:
                        new_best_s = base_s
                    term = vol_list[row] * (old_best - new_best_s)
                    delta += term
                    learned_terms.append(term)
                # ``contrib`` is freshly allocated per call, so the detail
                # can hold it without a defensive copy.
                return delta, (contrib, learned_terms)

            def patch_marginal(peering_id: int, key: Tuple[int, int]):
                """Volume-patch a memoized marginal: bit-equal, far cheaper.

                A volume shift changes marginal *weights* only — none of
                the scan state (``d0_arr``/``csum_arr``/``ccnt_arr``/
                ``ob_arr``) depends on volumes, and while ``intact`` that
                state evolves exactly as it did in the memo run.  So the
                shifted rows' terms are recomputed with IEEE-double scalar
                clones of the vectorized ops in ``marginal``, substituted
                into the recorded contribution vector and scalar-addition
                sequence, and the identical float summation is replayed —
                producing the same bits a fresh evaluation would, without
                rescanning the untouched rows.  Returns ``None`` when the
                recorded shape no longer matches (caller re-evaluates).
                """
                rec = pmemo_in.detail.get(key)
                if rec is None:
                    return None
                contrib0, learned_terms = rec
                idx = build_idx[peering_id]
                if len(contrib0) != len(idx):
                    return None  # learned split drifted under this memo
                la = learned_aff.get(peering_id, ())
                if len(la) != len(learned_terms):
                    return None
                dist = build_dist[peering_id]
                lat = build_lat[peering_id]
                vol = build_vol[peering_id]
                patched = contrib0.copy()
                changed = vol_rows[peering_id]
                for row in changed:
                    # ``idx`` is ascending (catalog inversion walks UGs in
                    # row order, and the learned-split mask preserves it).
                    pos = int(np.searchsorted(idx, row))
                    if pos >= len(idx) or idx[pos] != row:
                        continue  # learned row: handled in the loop below
                    d0_s = float(d0_arr[row])
                    ob_s = float(ob_arr[row])
                    dist_s = float(dist[pos])
                    shrink_s = dist_s < d0_s and math.isfinite(d0_s)
                    if shrink_s:
                        # Shrink rows hold their exact scalar term (or 0.0
                        # when the UG loses its path); both the shrink set
                        # and query reachability are volume-independent.
                        new_p_s = scan.query(ugs[row], peering_id)
                        if new_p_s is None:
                            patched[pos] = 0.0
                        else:
                            bl = base_list[row]
                            nb = new_p_s if new_p_s < bl else bl
                            patched[pos] = vol_list[row] * (
                                ob_arr[row] - nb
                            )
                    else:
                        lat_s = float(lat[pos])
                        limit_s = (
                            dist_s if dist_s < d0_s else d0_s
                        ) + d_reuse
                        add_s = dist_s <= limit_s and not math.isnan(lat_s)
                        new_cnt = float(ccnt_arr[row]) + (
                            1.0 if add_s else 0.0
                        )
                        new_sum = float(csum_arr[row]) + (
                            lat_s if add_s else 0.0
                        )
                        new_p = new_sum / (new_cnt if new_cnt > 1.0 else 1.0)
                        base_s = float(base_np[row])
                        if new_cnt > 0:
                            new_best = base_s if base_s < new_p else new_p
                        else:
                            new_best = ob_s
                        patched[pos] = float(vol[pos]) * (ob_s - new_best)
                total = float(patched.sum())
                if la:
                    new_learned: List[float] = []
                    for i, (ug, row) in enumerate(la):
                        if row in changed:
                            base_s = base_list[row]
                            old_p = cur_p[row]
                            old_best = (
                                base_s
                                if old_p is None or base_s < old_p
                                else old_p
                            )
                            new_p_s = scan.query(ug, peering_id)
                            if new_p_s is None:
                                new_best_s = old_best
                            elif new_p_s < base_s:
                                new_best_s = new_p_s
                            else:
                                new_best_s = base_s
                            t = vol_list[row] * (old_best - new_best_s)
                        else:
                            t = learned_terms[i]
                        total += t
                        new_learned.append(t)
                else:
                    new_learned = learned_terms
                return total, (patched, new_learned)

            # Initial heap build: with nothing accepted yet, each unlearned
            # affected UG contributes vol * max(0, base - latency), so one
            # masked dot product replaces the per-UG Python loop.
            version = 0
            heap: List[Tuple[float, int, int]] = []
            for pid in all_peering_ids:
                marginal_evals.add()
                # Volume-dirty peerings rebuild fresh too: the initial
                # build is one masked dot product, and BLAS accumulation
                # order is not reproducible by scalar patching.
                cached = (
                    pmemo_in.build.get(pid)
                    if intact and pid not in dirty and pid not in vol_rows
                    else None
                )
                if cached is not None:
                    delta = cached
                    reused_evals += 1
                else:
                    fresh_evals += 1
                    lat = build_lat[pid]
                    # Elementwise gains on the backend; the vol @ gain dot
                    # product (a reduction) stays on the host numpy path.
                    gain = backend.initial_gains(base_np[build_idx[pid]], lat)
                    delta = float(build_vol[pid] @ gain)
                    fast_queries.value += len(lat)
                    for ug, row in learned_aff.get(pid, ()):
                        base = base_list[row]
                        new_p = scan.query(ug, pid)
                        if new_p is not None and new_p < base:
                            delta += vol_list[row] * (base - new_p)
                if pmemo_out is not None:
                    pmemo_out.build[pid] = delta
                heap.append((-delta, version, pid))
            heapq.heapify(heap)

            while heap:
                neg_delta, seen_version, pid = heapq.heappop(heap)
                if pid in advertised:
                    continue
                if seen_version != version:
                    key = (version, pid)
                    clean = intact and pid not in dirty
                    cached = (
                        pmemo_in.refresh.get(key)
                        if clean and pid not in vol_rows
                        else None
                    )
                    if cached is not None:
                        fresh = cached
                        detail = pmemo_in.detail.get(key)
                        reused_evals += 1
                    else:
                        repatched = (
                            patch_marginal(pid, key)
                            if clean and pid in vol_rows
                            else None
                        )
                        if repatched is not None:
                            fresh, detail = repatched
                            patched_evals += 1
                        else:
                            fresh, detail = marginal(pid)
                            fresh_evals += 1
                    if pmemo_out is not None:
                        pmemo_out.refresh[key] = fresh
                        if detail is not None:
                            pmemo_out.detail[key] = detail
                    # Lazy re-evaluation: the refreshed marginal is only
                    # re-enqueued when it has fallen below the current heap
                    # top — otherwise it is still the best candidate and is
                    # decided on right here, with no extra pop.
                    if heap and fresh < -heap[0][0] - EPSILON_BENEFIT:
                        repushes.add()
                        heapq.heappush(heap, (-fresh, version, pid))
                        continue
                    neg_delta = -fresh
                if -neg_delta <= EPSILON_BENEFIT:
                    break  # no peering offers positive benefit for this prefix
                # Accept: advertise this prefix via this peering.
                marginal_hist.observe(-neg_delta)
                advertised.add(pid)
                config.add(prefix, pid)
                if pmemo_out is not None:
                    pmemo_out.accepts.append(pid)
                if intact and (
                    version >= len(pmemo_in.accepts)
                    or pmemo_in.accepts[version] != pid
                ):
                    # Divergence: the replayed accept sequence departed
                    # from the memo's, so every later memoized value was
                    # computed against state we no longer share.
                    intact = False
                version += 1
                affected = self._affected.get(pid, ())
                scan.accept(pid, affected)
                for ug, row in zip(affected, self._aff_rows[pid]):
                    if row in learned_rows:
                        value = scan.current(ug)
                    else:
                        d0, ksum, kcnt, value = scan.kept_stats(ug)
                        d0_arr[row] = d0
                        csum_arr[row] = ksum
                        ccnt_arr[row] = kcnt
                    cur_p[row] = value
                    exp_np[row, prefix] = np.inf if value is None else value
                    base = base_list[row]
                    ob_arr[row] = (
                        base if value is None or base < value else value
                    )
                if not self._allow_reuse:
                    break  # one peering per prefix (ablation)

            # What a naive greedy (full re-evaluation each step) would have
            # spent on this prefix: one scan over the remaining peerings per
            # accept, plus the final scan that finds nothing.
            accepts = len(advertised)
            n_peerings = len(all_peering_ids)
            if self._allow_reuse:
                naive_evals.add(
                    (accepts + 1) * n_peerings - accepts * (accepts + 1) // 2
                )
            else:
                naive_evals.add(n_peerings)

            if intact and version != len(pmemo_in.accepts):
                # We stopped accepting earlier than the memo solve did (a
                # dirty marginal dropped below the cutoff): later prefixes
                # see a different base state, so no further reuse.
                intact = False
            scan_span.tag("accepted", accepts)
            scan_cm.__exit__(None, None, None)
            if not advertised:
                break  # nothing left anywhere: further prefixes also won't help
            logger.debug(
                "prefix %d advertised via %d peerings", prefix, len(advertised)
            )
            if record_curve:
                evaluation = evaluator.evaluate(config)
                self.budget_curve.append(
                    BudgetPoint(
                        prefixes_used=config.prefix_count,
                        pairs_used=config.pair_count,
                        estimated_benefit=evaluation.estimated,
                        upper_benefit=evaluation.upper,
                        lower_benefit=evaluation.lower,
                        mean_benefit=evaluation.mean,
                    )
                )
        self._last_reused = reused_evals
        self._last_fresh = fresh_evals
        self._last_patched = patched_evals
        self._last_diverged = memo_in is not None and not intact
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
            timer = PERF.timer("orchestrator.execute_and_observe")
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
            if self._parallel is not None and touched_ugs:
                # Epoch invalidation: forked workers hold per-solve layouts
                # derived from a now-stale learned split; tell them to drop it
                # (the next solve's prep re-sends the authoritative set).
                if not self._parallel.invalidate(sorted(touched_ugs)):
                    # A worker missed the bump: the pool can no longer be
                    # trusted (or waited on).  Trip the breaker now so the
                    # next solve falls back to serial immediately instead of
                    # timing out against a wedged pool.
                    logger.warning(
                        "parallel invalidate broadcast failed; "
                        "tearing the pool down"
                    )
                    PERF.counter("parallel.fallbacks").add()
                    emit_event(
                        "parallel_fallback",
                        reason="invalidate broadcast failed",
                        workers=self._parallel.n_workers,
                    )
                    self._teardown_parallel(mark_broken=True)
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
