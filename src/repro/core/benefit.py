"""Benefit computation: Eq. (1), Eq. (2), and the Fig. 14 benefit ranges.

Terminology follows the paper:

* **improvement** of a UG under a configuration is its latency gain over the
  default anycast configuration; never negative, because the Traffic Manager
  always has anycast as a fallback destination;
* **benefit** (Eq. 1) is the volume-weighted sum of improvements;
* **expected** quantities use the routing model's candidate-ingress
  expectation (Eq. 2); **realized** quantities use the ground-truth oracle;
* a **benefit range** (lower/mean/estimated/upper, Appendix E.1) spans the
  policy-compliant ingresses a UG's chosen prefix is advertised over, where
  "estimated" weights ingresses by how unlikely their path inflation is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.advertisement import AdvertisementConfig
from repro.core.routing_model import RoutingModel
from repro.routing.ground_truth import GroundTruthRouting
from repro.scenario import Scenario
from repro.telemetry import METRICS
from repro.topology.geo import haversine_km
from repro.usergroups.usergroup import UserGroup

#: Marks a latency-matrix slot whose value has not been computed yet
#: (``None`` is a legitimate value: "unmeasurable ingress").
_UNSET = object()

#: Decay scale (km) for the inflation-probability weights in the "estimated"
#: range: paths inflated by an extra X km get weight exp(-X/scale), matching
#: the paper's "weights correspond to approximate probabilities that paths
#: are inflated by corresponding amounts".
DEFAULT_INFLATION_SCALE_KM = 1500.0

#: Dense-matrix rows filled per chunk are sized to about this many bytes of
#: one matrix, which bounds the fill's per-slot temporaries at ``mega`` scale.
DEFAULT_CHUNK_BYTES = 64 * 1024 * 1024

LatencyFn = Callable[[UserGroup, int], Optional[float]]


def _checked_latency(latency_of: LatencyFn, ug: UserGroup, peering_id: int) -> Optional[float]:
    """``latency_of(ug, peering_id)``, or ``ValueError`` if it is not a latency.

    ``None`` means unmeasurable; anything else must be a finite
    non-negative number of milliseconds.
    """
    value = latency_of(ug, peering_id)
    if value is None:
        return None
    latency = float(value)
    if not (math.isfinite(latency) and latency >= 0.0):
        raise ValueError(
            f"latency_of returned {value!r} for UG {ug.ug_id} via peering "
            f"{peering_id}; expected a finite latency >= 0 ms, or None for "
            f"an unmeasurable ingress"
        )
    return value


@dataclass(frozen=True)
class BenefitRange:
    """Possible improvements (ms) for one UG and one chosen prefix."""

    lower: float
    mean: float
    estimated: float
    upper: float

    def __post_init__(self) -> None:
        if not (self.lower <= self.mean <= self.upper) or not (
            self.lower <= self.estimated <= self.upper
        ):
            raise ValueError(f"inconsistent range: {self}")

    @property
    def uncertainty(self) -> float:
        """Width between best case and inflation-weighted estimate."""
        return self.upper - self.estimated


@dataclass(frozen=True)
class ConfigEvaluation:
    """Aggregate volume-weighted benefit of a configuration (ms units)."""

    lower: float
    mean: float
    estimated: float
    upper: float
    per_ug_estimated: Mapping[int, float]

    def as_fraction_of(self, total_possible: float) -> "ConfigEvaluation":
        if total_possible <= 0:
            raise ValueError("total_possible must be positive")
        scale = 1.0 / total_possible
        return ConfigEvaluation(
            lower=self.lower * scale,
            mean=self.mean * scale,
            estimated=self.estimated * scale,
            upper=self.upper * scale,
            per_ug_estimated={k: v * scale for k, v in self.per_ug_estimated.items()},
        )


@dataclass(frozen=True)
class BenefitMatrix:
    """Sparse volume-weighted singleton-advertisement gains.

    Entry ``e`` says: if UG row ``rows[e]`` is served by a prefix advertised
    via (exactly) peering column ``cols[e]``, its Eq.-1 contribution is
    ``gains[e] = volume * (anycast - latency)`` — the Eq.-2 expectation of a
    singleton advertised set is the peering's own latency, so these terms
    are exact, linear, and independent of any learned state.  Only positive,
    measurable, policy-compliant entries are kept.

    This is the shared input of the optimality comparator
    (:mod:`repro.optimality`): Algorithm 1's greedy, the budget-k selection
    ILP, its LP relaxation, and the brute-force oracle all consume the same
    matrix, so their objective values are directly comparable.

    Entries are ordered (UG row, peering column) lexicographically; rows
    follow ``scenario.user_groups`` order and columns index the ascending
    ``peering_ids`` list of every policy-compliant candidate peering.
    """

    ug_ids: Tuple[int, ...]
    peering_ids: Tuple[int, ...]
    rows: "np.ndarray"
    cols: "np.ndarray"
    gains: "np.ndarray"

    @property
    def n_ugs(self) -> int:
        return len(self.ug_ids)

    @property
    def n_peerings(self) -> int:
        return len(self.peering_ids)

    @property
    def nnz(self) -> int:
        return len(self.gains)

    def column_of(self, peering_id: int) -> int:
        """Column index of ``peering_id`` (raises ``ValueError`` if absent)."""
        col = int(np.searchsorted(self.peering_ids, peering_id))
        if col >= self.n_peerings or self.peering_ids[col] != peering_id:
            raise ValueError(f"peering {peering_id} has no candidate column")
        return col

    def selection_value(self, chosen_cols: Iterable[int]) -> float:
        """Total benefit when exactly ``chosen_cols`` peerings are selected.

        Each UG takes its best selected gain (or zero).  The reduction is
        deterministic (``np.maximum.at`` scatter + one ``ndarray.sum``), so
        two calls with selections achieving the same per-UG maxima return
        bit-identical floats — the equality contract the brute-force oracle
        and the ILP cross-check rely on.
        """
        chosen = np.asarray(sorted(set(int(c) for c in chosen_cols)), dtype=np.intp)
        if chosen.size == 0 or self.nnz == 0:
            return 0.0
        if chosen.size and (chosen[0] < 0 or chosen[-1] >= self.n_peerings):
            raise ValueError("selected column out of range")
        mask = np.isin(self.cols, chosen)
        best = np.zeros(self.n_ugs)
        np.maximum.at(best, self.rows[mask], self.gains[mask])
        return float(best.sum())


class BenefitEvaluator:
    """Evaluates configurations for a scenario under a routing model."""

    def __init__(
        self,
        scenario: Scenario,
        model: RoutingModel,
        latency_of: Optional[LatencyFn] = None,
        inflation_scale_km: float = DEFAULT_INFLATION_SCALE_KM,
    ) -> None:
        self._scenario = scenario
        self._model = model
        self._inflation_scale_km = inflation_scale_km
        #: The dense UG-row × peering-column latency (ms; ``+inf`` =
        #: unmeasurable, ``nan`` = not a compliant slot) and distance (km)
        #: matrices, ``None`` until :meth:`precompute_latency_matrix`.
        self.latency_matrix: Optional["np.ndarray"] = None
        self.distance_matrix: Optional["np.ndarray"] = None
        #: ``None`` materialises through the latency model's batch form;
        #: a custom oracle is asked slot by slot.
        self._custom_latency_of = latency_of
        if latency_of is None:
            deployment = scenario.deployment
            latency_model = scenario.latency_model

            def _true_latency(ug: UserGroup, peering_id: int) -> Optional[float]:
                return latency_model.latency_ms(ug, deployment.peering(peering_id))

            latency_of = _true_latency
        self._latency_of = latency_of
        self._peerings = scenario.deployment.peerings
        # Per-UG latency rows (one list per UG, one slot per peering column)
        # in front of the dense matrix: scalar lookups stay list-indexed.
        # Rows are created on first touch.
        self._lat_cols: Dict[int, int] = {
            p.peering_id: col for col, p in enumerate(self._peerings)
        }
        self._lat_rows: Dict[int, List[object]] = {}
        #: Sorted matrix columns per distinct compliant-ingress set (the
        #: catalog interns one frozenset per UG AS cone).
        self._set_cols: Dict[FrozenSet[int], "np.ndarray"] = {}
        #: Expected-latency memo per UG: (model epoch, {compliant set -> ms}).
        #: Keyed on the policy-compliant subset of the advertised set, which
        #: fully determines the answer.  Entries are discarded when the
        #: routing model's beliefs about the UG move (epoch mismatch) — the
        #: invalidation contract of :meth:`RoutingModel.ug_epoch`.
        self._exp_cache: Dict[int, Tuple[int, Dict[FrozenSet[int], Optional[float]]]] = {}
        self._lat_stats = METRICS.cache("evaluator.latency_matrix")
        self._exp_stats = METRICS.cache("evaluator.expected_latency")
        #: UG id → dense-matrix row, built lazily on the first dense lookup.
        self._dense_rows: Optional[Dict[int, int]] = None

    def _dense_row_of(self, ug_id: int) -> Optional[int]:
        if self._dense_rows is None:
            self._dense_rows = {
                ug.ug_id: i for i, ug in enumerate(self._scenario.user_groups)
            }
        return self._dense_rows.get(ug_id)

    @property
    def scenario(self) -> Scenario:
        return self._scenario

    @property
    def model(self) -> RoutingModel:
        return self._model

    def latency(self, ug: UserGroup, peering_id: int) -> Optional[float]:
        row = self._lat_rows.get(ug.ug_id)
        if row is None:
            row = self._lat_rows[ug.ug_id] = [_UNSET] * len(self._lat_cols)
        col = self._lat_cols[peering_id]
        value = row[col]
        if value is _UNSET:
            dense_lat = self.latency_matrix
            if dense_lat is not None:
                dense_row = self._dense_row_of(ug.ug_id)
                if dense_row is not None:
                    dense_value = dense_lat[dense_row, col]
                    if dense_value == dense_value:  # not nan: slot was filled
                        self._lat_stats.hits += 1
                        value = (
                            None if math.isinf(dense_value) else float(dense_value)
                        )
                        row[col] = value
                        return value
            self._lat_stats.misses += 1
            value = _checked_latency(self._latency_of, ug, peering_id)
            row[col] = value
        else:
            self._lat_stats.hits += 1
        return value

    @property
    def peering_columns(self) -> Dict[int, int]:
        """Peering id → latency-matrix column, in deployment order."""
        return dict(self._lat_cols)

    def precompute_latency_matrix(self, *, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> int:
        """Materialise every slot Algorithm 1 can read.

        Allocates the dense UG-row × peering-column latency and distance
        pair, fills it one row chunk of about ``chunk_bytes`` at a time
        with :meth:`fill_latency_rows`, then keeps it as
        :attr:`latency_matrix` / :attr:`distance_matrix`.  Returns the
        number of slots filled; a no-op (0) once the pair exists.
        """
        if self.latency_matrix is not None:
            return 0
        n_rows = len(self._scenario.user_groups)
        n_cols = len(self._lat_cols)
        chunk_rows = max(1, chunk_bytes // max(1, 8 * n_cols))
        lat = np.full((n_rows, n_cols), np.nan)
        dist = np.full((n_rows, n_cols), np.nan)
        filled = 0
        with METRICS.timed("evaluator.materialize_s"):
            for lo in range(0, n_rows, chunk_rows):
                filled += self.fill_latency_rows(lat, dist, lo, min(lo + chunk_rows, n_rows))
        self.latency_matrix, self.distance_matrix = lat, dist
        return filled

    def fill_latency_rows(
        self, lat: "np.ndarray", dist: "np.ndarray", lo: int, hi: int
    ) -> int:
        """Write UG rows ``[lo, hi)`` of a dense latency/distance pair.

        The one place (UG, ingress) inputs are produced: every
        policy-compliant slot of those rows gets its latency (``+inf`` =
        unmeasurable) and its great-circle distance; every other slot is
        left as it was (``nan`` in a fresh pair).  Distances are gathered
        from the routing model's metro × PoP :attr:`RoutingModel.geometry`
        and latencies come from the latency model's batch form, both
        bit-identical to their scalar oracles.  A custom ``latency_of`` is
        asked slot by slot instead, and a value that is not ``None`` or a
        finite latency ``>= 0`` raises ``ValueError``.  Returns the number
        of slots written; each counts as one ``evaluator.latency_matrix``
        miss.
        """
        ugs = self._scenario.user_groups[lo:hi]
        catalog = self._model.catalog
        col_lists = [self._ingress_cols(catalog.ingress_ids(ug)) for ug in ugs]
        counts = np.fromiter(map(len, col_lists), dtype=np.intp, count=len(ugs))
        rows = np.repeat(np.arange(len(ugs), dtype=np.intp), counts)
        cols = np.concatenate(col_lists) if col_lists else np.empty(0, dtype=np.intp)
        geometry = self._model.geometry
        origin = geometry.origin_indices(ug.location for ug in ugs)[rows]
        target = geometry.target_indices(p.pop.location for p in self._peerings)[cols]
        if self._custom_latency_of is None:
            values = self._scenario.latency_model.day0_latencies(
                ugs, self._peerings, rows, cols, geometry.fiber_rtt_ms[origin, target]
            )
        else:
            pids = [p.peering_id for p in self._peerings]
            values = np.array(
                [
                    _checked_latency(self._custom_latency_of, ugs[row], pids[col])
                    for row, col in zip(rows.tolist(), cols.tolist())
                ],
                dtype=np.float64,
            )
            values[np.isnan(values)] = np.inf  # None; a nan answer raised
        lat[rows + lo, cols] = values
        dist[rows + lo, cols] = geometry.km[origin, target]
        self._lat_stats.misses += len(rows)
        return len(rows)

    def _ingress_cols(self, ingress_ids: FrozenSet[int]) -> "np.ndarray":
        cols = self._set_cols.get(ingress_ids)
        if cols is None:
            cols = np.array(sorted(self._lat_cols[pid] for pid in ingress_ids), dtype=np.intp)
            self._set_cols[ingress_ids] = cols
        return cols

    def benefit_matrix(
        self, user_groups: Optional[Sequence[UserGroup]] = None
    ) -> BenefitMatrix:
        """Extract the singleton-advertisement gain matrix (see
        :class:`BenefitMatrix`).

        Uses this evaluator's (cached) latency source, so the matrix is
        consistent with every Eq.-2 expectation the greedy computed: for any
        advertised set ``A`` the model's expectation is a mean over a subset
        of ``A``'s measurable compliant ingresses, hence at least the best
        singleton gain recorded here.  That inequality is what makes the
        optimality comparator's LP bound sound for reuse configurations.
        """
        catalog = self._model.catalog
        ugs = self._scenario.user_groups if user_groups is None else user_groups
        peering_ids = sorted({pid for ug in ugs for pid in catalog.ingress_ids(ug)})
        col_of = {pid: col for col, pid in enumerate(peering_ids)}
        rows: List[int] = []
        cols: List[int] = []
        gains: List[float] = []
        for row, ug in enumerate(ugs):
            anycast = self._scenario.anycast_latency_ms(ug)
            volume = ug.volume
            for pid in sorted(catalog.ingress_ids(ug)):
                latency = self.latency(ug, pid)
                if latency is None:
                    continue
                gain = anycast - latency
                if gain > 0.0:
                    rows.append(row)
                    cols.append(col_of[pid])
                    gains.append(volume * gain)
        return BenefitMatrix(
            ug_ids=tuple(ug.ug_id for ug in ugs),
            peering_ids=tuple(peering_ids),
            rows=np.array(rows, dtype=np.intp),
            cols=np.array(cols, dtype=np.intp),
            gains=np.array(gains, dtype=np.float64),
        )

    # -- Eq. 2: modeled improvement -------------------------------------------

    def expected_prefix_latency(
        self, ug: UserGroup, advertised: FrozenSet[int]
    ) -> Optional[float]:
        compliant = self._model.catalog.compliant_subset(ug, advertised)
        if len(compliant) <= 1:
            # A singleton's candidate set is itself and (0.0 + lat) / 1 is
            # lat bit-for-bit, so neither the model nor the memo is needed.
            if not compliant:
                return None
            (pid,) = compliant
            return self.latency(ug, pid)
        cache = self._expected_memo(ug)
        value = cache.get(compliant, _UNSET)
        if value is not _UNSET:
            self._exp_stats.hits += 1
            return value
        self._exp_stats.misses += 1
        value = self._model.expected_latency_ms(
            ug, compliant, self.latency, compliant=compliant
        )
        cache[compliant] = value
        return value

    def _expected_memo(self, ug: UserGroup) -> Dict[FrozenSet[int], Optional[float]]:
        """The UG's Eq.-2 memo under the model's current beliefs."""
        epoch = self._model.ug_epoch(ug.ug_id)
        entry = self._exp_cache.get(ug.ug_id)
        if entry is None or entry[0] != epoch:
            if entry is not None:
                self._exp_stats.invalidations += 1
            entry = (epoch, {})
            self._exp_cache[ug.ug_id] = entry
        return entry[1]

    def remember_expected(
        self, ug: UserGroup, compliant: FrozenSet[int], value: Optional[float]
    ) -> None:
        """Record ``expected_prefix_latency`` of a compliant set computed
        elsewhere — the solve's array evaluation of learned rows, which is
        bit-identical to it — so evaluating the solved configuration next
        does not compute it again."""
        self._expected_memo(ug)[compliant] = value

    def expected_improvement(self, ug: UserGroup, config: AdvertisementConfig) -> float:
        """Eq. 2: improvement of the best prefix over anycast, floored at 0."""
        anycast = self._scenario.anycast_latency_ms(ug)
        best = anycast
        for prefix in config.prefixes:
            latency = self.expected_prefix_latency(ug, config.peerings_for(prefix))
            if latency is not None and latency < best:
                best = latency
        return anycast - best

    def expected_benefit(self, config: AdvertisementConfig) -> float:
        """Eq. 1 with modeled improvements."""
        return sum(
            ug.volume * self.expected_improvement(ug, config)
            for ug in self._scenario.user_groups
        )

    # -- Fig. 14: benefit ranges ---------------------------------------------

    def _range_for_prefix(
        self, ug: UserGroup, advertised: FrozenSet[int]
    ) -> Optional[BenefitRange]:
        """Range over all policy-compliant advertised ingresses (no exclusions)."""
        compliant = self._model.catalog.compliant_subset(ug, advertised)
        anycast = self._scenario.anycast_latency_ms(ug)
        deployment = self._scenario.deployment
        distances = []
        improvements = []
        for pid in sorted(compliant):
            latency = self.latency(ug, pid)
            if latency is None:
                continue
            improvements.append(max(0.0, anycast - latency))
            distances.append(
                haversine_km(ug.location, deployment.peering(pid).pop.location)
            )
        if not improvements:
            return None
        closest = min(distances)
        weights = [self._inflation_weight(d - closest) for d in distances]
        total_weight = sum(weights)
        if not total_weight > 0.0:
            # Every inflation weight vanished (or went non-finite): there is
            # no defensible weighting left, so collapse to the 0-width range
            # at the closest ingress's improvement instead of dividing by
            # zero — the scale -> 0 limit, where all probability mass sits
            # on the least-inflated path.
            value = improvements[distances.index(closest)]
            return BenefitRange(
                lower=value, mean=value, estimated=value, upper=value
            )
        estimated = sum(i * w for i, w in zip(improvements, weights)) / total_weight
        return BenefitRange(
            lower=min(improvements),
            mean=sum(improvements) / len(improvements),
            estimated=estimated,
            upper=max(improvements),
        )

    def _inflation_weight(self, excess_km: float) -> float:
        """Inflation-probability weight for a path ``excess_km`` beyond the
        closest candidate.

        A non-positive decay scale degrades to a hard cutoff (weight 1 at
        the closest distance, 0 beyond) rather than raising
        ``ZeroDivisionError`` inside ``exp``.
        """
        scale = self._inflation_scale_km
        if scale <= 0.0:
            return 1.0 if excess_km <= 0.0 else 0.0
        return math.exp(-excess_km / scale)

    def benefit_range(
        self, ug: UserGroup, config: AdvertisementConfig
    ) -> BenefitRange:
        """Range for the prefix the UG would select (highest mean, Eq. 2)."""
        best_range: Optional[BenefitRange] = None
        for prefix in config.prefixes:
            candidate = self._range_for_prefix(ug, config.peerings_for(prefix))
            if candidate is None:
                continue
            if best_range is None or candidate.mean > best_range.mean:
                best_range = candidate
        if best_range is None:
            return BenefitRange(lower=0.0, mean=0.0, estimated=0.0, upper=0.0)
        return best_range

    def evaluate(self, config: AdvertisementConfig) -> ConfigEvaluation:
        """Volume-weighted lower/mean/estimated/upper benefit of a config."""
        lower = mean = estimated = upper = 0.0
        per_ug: Dict[int, float] = {}
        for ug in self._scenario.user_groups:
            rng = self.benefit_range(ug, config)
            lower += ug.volume * rng.lower
            mean += ug.volume * rng.mean
            estimated += ug.volume * rng.estimated
            upper += ug.volume * rng.upper
            per_ug[ug.ug_id] = rng.estimated
        return ConfigEvaluation(
            lower=lower, mean=mean, estimated=estimated, upper=upper, per_ug_estimated=per_ug
        )


def realized_improvement(
    scenario: Scenario,
    ug: UserGroup,
    config: AdvertisementConfig,
    day: int = 0,
    fixed_prefix: Optional[int] = None,
) -> float:
    """Ground-truth improvement: the TM measures every prefix and anycast.

    With ``fixed_prefix`` the UG is pinned to one prefix (Fig. 7's "static
    prefix choices"); otherwise it uses the best available (dynamic).
    Improvement stays floored at 0 since anycast remains a destination.
    """
    routing: GroundTruthRouting = scenario.routing
    anycast = scenario.anycast_latency_ms(ug, day=day)
    prefixes = [fixed_prefix] if fixed_prefix is not None else config.prefixes
    best = anycast
    for prefix in prefixes:
        advertised = config.peerings_for(prefix)
        if not advertised:
            continue
        latency = routing.latency_for(ug, advertised, day=day)
        if latency is not None and latency < best:
            best = latency
    return anycast - best


def realized_benefit(
    scenario: Scenario,
    config: AdvertisementConfig,
    day: int = 0,
    prefix_choice: Optional[Mapping[int, int]] = None,
) -> float:
    """Eq. 1 with ground-truth improvements (optionally pinned prefixes).

    With ``prefix_choice`` given, every UG is static: mapped UGs stay on
    their pinned prefix, unmapped UGs stay on anycast (they had no better
    prefix when the pins were chosen) — contributing zero improvement.
    """
    total = 0.0
    for ug in scenario.user_groups:
        if prefix_choice is not None and ug.ug_id not in prefix_choice:
            continue  # pinned to anycast: zero improvement by definition
        fixed = None if prefix_choice is None else prefix_choice[ug.ug_id]
        total += ug.volume * realized_improvement(
            scenario, ug, config, day=day, fixed_prefix=fixed
        )
    return total


def best_prefix_choices(
    scenario: Scenario, config: AdvertisementConfig, day: int = 0
) -> Dict[int, int]:
    """Each UG's best prefix by ground-truth latency on ``day`` (for Fig. 7)."""
    routing = scenario.routing
    choices: Dict[int, int] = {}
    for ug in scenario.user_groups:
        anycast = scenario.anycast_latency_ms(ug, day=day)
        best_latency = anycast
        best_prefix: Optional[int] = None
        for prefix in config.prefixes:
            advertised = config.peerings_for(prefix)
            if not advertised:
                continue
            latency = routing.latency_for(ug, advertised, day=day)
            if latency is not None and latency < best_latency:
                best_latency = latency
                best_prefix = prefix
        if best_prefix is not None:
            choices[ug.ug_id] = best_prefix
    return choices
