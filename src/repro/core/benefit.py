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
from functools import reduce
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.advertisement import AdvertisementConfig
from repro.core.routing_model import DominanceTable, RoutingModel
from repro.scenario import Scenario
from repro.telemetry import METRICS
from repro.usergroups.usergroup import UserGroup
from repro.util import sequential_sum

#: Decay scale (km) for the inflation-probability weights in the "estimated"
#: range: paths inflated by an extra X km get weight exp(-X/scale), matching
#: the paper's "weights correspond to approximate probabilities that paths
#: are inflated by corresponding amounts".
DEFAULT_INFLATION_SCALE_KM = 1500.0

#: Compliant slots the fill computes per pass, which bounds its per-slot
#: temporaries at ``mega`` scale.
FILL_CHUNK_SLOTS = 1 << 20

LatencyFn = Callable[[UserGroup, int], Optional[float]]


def _checked_latency(latency_of: LatencyFn, ug: UserGroup, peering_id: int) -> Optional[float]:
    """``latency_of(ug, peering_id)``, or ``ValueError`` if it is not a latency.

    ``None`` means unmeasurable; anything else must be a finite
    non-negative number of milliseconds — a real number, not a string or
    a ``bool``.
    """
    value = latency_of(ug, peering_id)
    if value is None:
        return None
    if not isinstance(value, (str, bytes, bool, np.bool_)):
        latency = float(value)
        if math.isfinite(latency) and latency >= 0.0:
            return latency
    raise ValueError(
        f"latency_of returned {value!r} for UG {ug.ug_id} via peering "
        f"{peering_id}; expected a finite latency >= 0 ms, or None for "
        f"an unmeasurable ingress"
    )


def masked_mean(values: "np.ndarray", use: "np.ndarray") -> "np.ndarray":
    """Each row's mean over the ``values`` it ``use``s (``+inf``: none).

    A row is summed left to right one term at a time (``cumsum``, never a
    pairwise ``ndarray.sum``), so it is the double a loop adding each used
    value to ``0.0`` gives; the final ``+ 0.0`` turns an all ``-0.0`` sum
    into that loop's ``0.0``.
    """
    total = np.cumsum(np.where(use, values, 0.0), axis=1)[:, -1] + 0.0
    count = use.sum(axis=1)
    mean = np.full(len(values), np.inf)
    np.divide(total, count, out=mean, where=count > 0)
    return mean


def _runs(rows: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """``(starts, counts, run)`` of a row-sorted slot array: where each
    row's run of slots starts, its length, and each slot's run."""
    starts = np.flatnonzero(np.concatenate([[True], rows[1:] != rows[:-1]]))
    counts = np.diff(starts, append=len(rows))
    return starts, counts, np.repeat(np.arange(len(starts)), counts)


@dataclass(frozen=True)
class SlotStore:
    """Every policy-compliant (UG row, peering) slot's latency and distance.

    The one (UG, ingress) store Algorithm 1 reads.  Slots are laid out in
    ascending peering id, ascending UG row within each peering's ``[start,
    end)`` span of :attr:`spans`; ``latency`` is in ms (``nan``:
    unmeasurable) and ``distance`` in great-circle km.  A CSR index serves
    per-UG reads: row ``r``'s slots, ascending peering id, sit at the
    positions ``at[first[r]:first[r + 1]]``.  ``latency`` and ``distance``
    are the two rows of one ``(2, slots)`` array, :attr:`values`, so a
    batch of slots reads both in one gather.
    """

    rows: "np.ndarray"
    latency: "np.ndarray"
    distance: "np.ndarray"
    values: "np.ndarray"
    spans: Dict[int, Tuple[int, int]]
    first: "np.ndarray"
    at: "np.ndarray"

    @classmethod
    def layout(cls, peering_ids: Sequence["np.ndarray"]) -> "SlotStore":
        """An unfilled store (``nan`` values) holding one slot per entry of
        ``peering_ids[r]``, row ``r``'s compliant peering ids ascending."""
        counts = np.fromiter(map(len, peering_ids), dtype=np.intp, count=len(peering_ids))
        pids = np.concatenate(peering_ids) if len(peering_ids) else np.empty(0, np.intp)
        sizes = np.bincount(pids)
        # Row-major (row, peering) slots in store order, and back; the
        # temporaries go before the value arrays are allocated.
        order = np.argsort(pids, kind="stable")
        del pids
        at = np.empty_like(order)
        at[order] = np.arange(len(order))
        rows = np.repeat(np.arange(len(peering_ids)), counts)[order]
        del order
        bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        values = np.full((2, len(rows)), np.nan)
        return cls(
            rows=rows,
            latency=values[0],
            distance=values[1],
            values=values,
            spans={pid: (bounds[pid], bounds[pid + 1]) for pid in np.flatnonzero(sizes).tolist()},
            first=np.concatenate([[0], np.cumsum(counts)]),
            at=at,
        )

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ConfigEvaluation:
    """Aggregate volume-weighted benefit of a configuration (ms units)."""

    lower: float
    mean: float
    estimated: float
    upper: float

    def as_fraction_of(self, total_possible: float) -> "ConfigEvaluation":
        if total_possible <= 0:
            raise ValueError("total_possible must be positive")
        scale = 1.0 / total_possible
        return ConfigEvaluation(
            lower=self.lower * scale,
            mean=self.mean * scale,
            estimated=self.estimated * scale,
            upper=self.upper * scale,
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
    ) -> None:
        self._scenario = scenario
        self._model = model
        #: Every compliant slot's latency and distance, ``None`` until
        #: :meth:`precompute_latency_matrix` (or the first lookup) fills it.
        self.store: Optional[SlotStore] = None
        #: ``None`` materialises through the latency model's batch form;
        #: a custom oracle is asked slot by slot.
        self._custom_latency_of = latency_of
        self._row_of = {ug.ug_id: row for row, ug in enumerate(scenario.user_groups)}
        #: Sorted peering ids per distinct compliant-ingress set (the
        #: catalog interns one frozenset per UG AS cone).
        self._sorted: Dict[FrozenSet[int], "np.ndarray"] = {}
        self._lat_stats = METRICS.cache("evaluator.latency_matrix")

    @property
    def scenario(self) -> Scenario:
        return self._scenario

    @property
    def model(self) -> RoutingModel:
        return self._model

    def _filled(self) -> SlotStore:
        if self.store is None:
            self.precompute_latency_matrix()
        return self.store

    def _sorted_ids(self, ingress_ids: FrozenSet[int]) -> "np.ndarray":
        ids = self._sorted.get(ingress_ids)
        if ids is None:
            ids = self._sorted[ingress_ids] = np.array(sorted(ingress_ids), dtype=np.intp)
        return ids

    def precompute_latency_matrix(self) -> int:
        """Materialise every slot Algorithm 1 can read into :attr:`store`.

        The one place (UG, ingress) inputs are produced, :data:`FILL_CHUNK_SLOTS`
        slots at a time in store order: each policy-compliant slot gets its
        latency and its great-circle distance.  Distances are gathered from
        the routing model's metro × PoP :attr:`RoutingModel.geometry` and
        latencies come from the latency model's batch form, both
        bit-identical to their scalar oracles.  A custom ``latency_of`` is
        asked slot by slot instead, and a value that is not ``None`` or a
        finite latency ``>= 0`` raises ``ValueError`` before anything is
        kept.  Returns the number of slots filled, each one
        ``evaluator.latency_matrix`` miss; a no-op (0) once the store
        exists.
        """
        if self.store is not None:
            return 0
        with METRICS.timed("evaluator.materialize_s"):
            ugs = self._scenario.user_groups
            catalog = self._model.catalog
            store = SlotStore.layout([self._sorted_ids(catalog.ingress_ids(ug)) for ug in ugs])
            pids = list(store.spans)
            ends = np.array([end for _, end in store.spans.values()], dtype=np.intp)
            peerings = [self._scenario.deployment.peering(pid) for pid in pids]
            geometry = self._model.geometry
            origin_of = geometry.origin_indices(ug.location for ug in ugs)
            target_of = geometry.target_indices(p.pop.location for p in peerings)
            custom = self._custom_latency_of
            for lo in range(0, len(store), FILL_CHUNK_SLOTS):
                hi = min(lo + FILL_CHUNK_SLOTS, len(store))
                rows = store.rows[lo:hi]
                cols = np.searchsorted(ends, np.arange(lo, hi), side="right")
                origin, target = origin_of[rows], target_of[cols]
                if custom is None:
                    used, local = np.unique(rows, return_inverse=True)
                    store.latency[lo:hi] = self._scenario.latency_model.day0_latencies(
                        [ugs[row] for row in used.tolist()], peerings, local, cols,
                        geometry.fiber_rtt_ms[origin, target],
                    )
                else:
                    store.latency[lo:hi] = [
                        _checked_latency(custom, ugs[row], pids[col])
                        for row, col in zip(rows.tolist(), cols.tolist())
                    ]
                store.distance[lo:hi] = geometry.km[origin, target]
        self.store = store
        self._lat_stats.misses += len(store)
        return len(store)

    def benefit_matrix(
        self, user_groups: Optional[Sequence[UserGroup]] = None
    ) -> BenefitMatrix:
        """Extract the singleton-advertisement gain matrix (see
        :class:`BenefitMatrix`).

        Reads this evaluator's store, so the matrix is consistent with
        every Eq.-2 expectation the greedy computed: for any advertised set
        ``A`` the model's expectation is a mean over a subset of ``A``'s
        measurable compliant ingresses, hence at least the best singleton
        gain recorded here.  That inequality is what makes the optimality
        comparator's LP bound sound for reuse configurations.
        """
        store = self._filled()
        catalog = self._model.catalog
        ugs = self._scenario.user_groups if user_groups is None else user_groups
        # Every (UG, compliant peering) slot, UG by UG, peering ids
        # ascending: the CSR ranges of the UGs' rows end to end.
        ids = [self._sorted_ids(catalog.ingress_ids(ug)) for ug in ugs]
        pids = np.concatenate(ids) if ids else np.empty(0, dtype=np.intp)
        starts = store.first[[self._row_of[ug.ug_id] for ug in ugs]]
        counts = np.array([len(row_ids) for row_ids in ids], dtype=np.intp)
        offset = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        at = store.at[offset + np.arange(len(pids))]
        self._lat_stats.hits += len(at)
        rows = np.repeat(np.arange(len(ugs)), counts)
        anycast = np.array([self._scenario.anycast_latency_ms(ug) for ug in ugs])
        volume = np.array([ug.volume for ug in ugs], dtype=np.float64)
        gain = anycast[rows] - store.latency[at]
        keep = gain > 0.0  # false for nan: unmeasurable
        peering_ids = np.unique(pids)
        return BenefitMatrix(
            ug_ids=tuple(ug.ug_id for ug in ugs),
            peering_ids=tuple(peering_ids.tolist()),
            rows=rows[keep],
            cols=np.searchsorted(peering_ids, pids[keep]),
            gains=volume[rows[keep]] * gain[keep],
        )

    # -- Eq. 2: modeled improvement -------------------------------------------

    def learned_table(
        self, ug_ids: Iterable[int]
    ) -> Tuple[Optional[DominanceTable], "np.ndarray"]:
        """The routing model's table of the learned UGs ``ug_ids`` and each
        row's slot there (``-1``: unlearned).

        Only UGs of this world with a compliant slot count, compiled in
        ascending row order, so the solve's row engine and
        :meth:`expected_latencies` ask for the same table and the model
        compiles it once.  ``None`` when no row is learned.
        """
        store = self._filled()
        slot_of = np.full(len(self._row_of), -1, dtype=np.intp)
        rows = np.array(
            sorted(self._row_of[ug_id] for ug_id in ug_ids if ug_id in self._row_of),
            dtype=np.intp,
        )
        rows = rows[store.first[rows + 1] > store.first[rows]]
        if not len(rows):
            return None, slot_of
        slot_of[rows] = np.arange(len(rows))
        ugs = self._scenario.user_groups
        return self._model.dominance_table([ugs[row].ug_id for row in rows.tolist()]), slot_of

    def expected_latencies(self, config: AdvertisementConfig) -> "np.ndarray":
        """Eq. 2 per prefix and UG: ``(prefixes, rows)`` expected latencies
        under the model's current beliefs, ``+inf`` where the prefix gives
        the UG nothing measurable (:meth:`_eq2`, one pass per prefix)."""
        expected = np.full((len(config.prefixes), len(self._row_of)), np.inf)
        if config.prefixes:
            store = self._filled()
            learned = self.learned_table(self._model.learned_ug_ids)
            for i, prefix in enumerate(config.prefixes):
                expected[i] = self._eq2(store, config.peerings_for(prefix), learned)[2]
        return expected

    def expected_benefit(self, config: AdvertisementConfig) -> float:
        """Eq. 1 with modeled improvements: each UG gains ``anycast -
        min(anycast, its best prefix's expected latency)``, volume-weighted
        and summed in UG order."""
        ugs = self._scenario.user_groups
        anycast = np.array([self._scenario.anycast_latency_ms(ug) for ug in ugs])
        best = np.minimum(anycast, self.expected_latencies(config).min(axis=0, initial=np.inf))
        volume = np.array([ug.volume for ug in ugs], dtype=np.float64)
        return sequential_sum((volume * (anycast - best)).tolist())

    def _advertised(
        self, store: SlotStore, advertised: FrozenSet[int]
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """The store positions of the advertised compliant slots and their
        peering ids: the advertised peerings' spans end to end (ascending
        peering id), stably sorted by row, so each row's ingresses are in
        ascending peering id.  Each slot is one ``evaluator.latency_matrix``
        hit."""
        pids = [pid for pid in sorted(advertised) if pid in store.spans]
        spans = [store.spans[pid] for pid in pids]
        sizes = [hi - lo for lo, hi in spans]
        self._lat_stats.hits += sum(sizes)
        if not spans:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        at = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
        order = np.argsort(store.rows[at], kind="stable")
        return at[order], np.repeat(pids, sizes)[order]

    def _eq2(
        self,
        store: SlotStore,
        advertised: FrozenSet[int],
        learned: Tuple[Optional[DominanceTable], "np.ndarray"],
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Eq. 2 under one advertised set: ``(at, kept, expected)``.

        ``at`` holds the advertised compliant slots (:meth:`_advertised`),
        ``kept`` marks the model's candidate ingresses among them and
        ``expected`` is every row's :func:`masked_mean` latency over its
        measurable candidates (``+inf``: none).  An unlearned row keeps the
        slots within ``d_reuse_km`` of its closest; a learned row asks
        ``learned`` (:meth:`learned_table`), outcome memory included.
        Unmeasurable slots take part in the choice, since the closest one
        anchors the reuse window; only the mean skips them.
        """
        at, pids = self._advertised(store, advertised)
        expected = np.full(len(self._row_of), np.inf)
        if not len(at):
            return at, np.empty(0, dtype=bool), expected
        rows = store.rows[at]
        lat, dist = store.values[:, at]
        starts, counts, segment = _runs(rows)
        d_reuse = self._model.d_reuse_km
        kept = dist - np.minimum.reduceat(dist, starts)[segment] <= d_reuse
        table, slot_of = learned
        slots = slot_of[rows[starts]]
        mine = np.flatnonzero(slots >= 0)
        if len(mine):
            width = np.arange(counts[mine].max())
            pos = np.minimum(starts[mine][:, None] + width, len(at) - 1)
            real = width < counts[mine][:, None]
            cand = np.where(real, pids[pos], table.pad)
            mask = table.kept(slots[mine], cand, table.asn_bits(cand), dist[pos], d_reuse)
            kept[pos[real]] = mask[real]
        rank = np.arange(len(rows)) - starts[segment]
        grid = np.zeros((len(starts), counts.max()))
        use = np.zeros(grid.shape, dtype=bool)
        grid[segment, rank] = lat
        use[segment, rank] = kept & (lat == lat)
        expected[rows[starts]] = masked_mean(grid, use)
        return at, kept, expected

    # -- Fig. 14: benefit ranges ---------------------------------------------

    def evaluate(self, config: AdvertisementConfig) -> ConfigEvaluation:
        """Volume-weighted lower/mean/estimated/upper benefit of a config.

        Each UG's band is the range of the prefix it would select (the
        strictly larger mean, the first on a tie) over that prefix's
        policy-compliant advertised ingresses (:meth:`_prefix_bands`); a UG
        with none contributes zero.  The totals are summed in UG order.
        """
        ugs = self._scenario.user_groups
        best = np.zeros((4, len(ugs)))
        if config.prefixes:
            store = self._filled()
            anycast = np.array([self._scenario.anycast_latency_ms(ug) for ug in ugs])
            for prefix in config.prefixes:
                rows, bands = self._prefix_bands(store, anycast, config.peerings_for(prefix))
                # A band with mean 0 is all zeros, so a strictly larger mean
                # than the zero start keeps the first of tied prefixes.
                wins = bands[1] > best[1, rows]
                best[:, rows[wins]] = bands[:, wins]
        volume = np.array([ug.volume for ug in ugs], dtype=np.float64)
        lower, mean, estimated, upper = (
            sequential_sum(terms) for terms in (volume * best).tolist()
        )
        return ConfigEvaluation(lower=lower, mean=mean, estimated=estimated, upper=upper)

    def _prefix_bands(
        self, store: SlotStore, anycast: "np.ndarray", advertised: FrozenSet[int]
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """The rows with a measurable compliant advertised ingress, ascending,
        and their ``(4, rows)`` lower/mean/estimated/upper improvements.

        Each row's measurable ingresses come in ascending peering id
        (:meth:`_advertised`).  Improvements are ``max(0, anycast - latency)``; "estimated"
        weights each ingress by ``exp(-excess / DEFAULT_INFLATION_SCALE_KM)``
        for the km it lies beyond the row's closest one, so the closest
        weighs 1.  Every row's sums run one ingress at a time (a zero-padded
        rank x row grid added rank by rank), never a pairwise
        ``ndarray.sum``.
        """
        at = self._advertised(store, advertised)[0]
        at = at[~np.isnan(store.latency[at])]
        rows = store.rows[at]
        lat, dist = store.values[:, at]
        if not len(rows):
            return rows, np.empty((4, 0))
        starts, counts, segment = _runs(rows)
        improvement = np.maximum(0.0, anycast[rows] - lat)
        excess = dist - np.minimum.reduceat(dist, starts)[segment]
        # ``math.exp``, not ``np.exp``, whose last bit can differ; excess
        # distances repeat (the UGs of one metro share them), so once per
        # distinct one.
        distinct, inverse = np.unique(excess, return_inverse=True)
        exp = [math.exp(-x / DEFAULT_INFLATION_SCALE_KM) for x in distinct.tolist()]
        weight = np.array(exp)[inverse]
        grid = np.zeros((counts.max(), 3, len(starts)))
        rank = np.arange(len(rows)) - starts[segment]
        grid[rank, 0, segment] = improvement
        grid[rank, 1, segment] = weight
        grid[rank, 2, segment] = improvement * weight
        total, weights, weighted = reduce(np.add, grid)
        bands = np.array([
            np.minimum.reduceat(improvement, starts),
            total / counts,
            weighted / weights,
            np.maximum.reduceat(improvement, starts),
        ])
        lower, mean, estimated, upper = bands
        # A mean of n sequentially summed non-negative terms can land a few
        # ulps outside [lower, upper] (three tied x need not average to x):
        # only a miss beyond that rounding is an inconsistent band.
        slack = (counts + 1) * np.finfo(float).eps * upper
        low, high = lower - slack, upper + slack
        bad = ~((low <= mean) & (mean <= high) & (low <= estimated) & (estimated <= high))
        if bad.any():
            at = int(np.argmax(bad))
            ug = self._scenario.user_groups[rows[starts[at]]]
            raise ValueError(f"inconsistent range for UG {ug.ug_id}: {bands[:, at].tolist()}")
        return rows[starts], bands


def tm_choice(anycast: Sequence[float], matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The Traffic Manager's rule (§3.2) over a realized catchment.

    ``matrix`` holds each UG's (row) latency via each announcement
    (column), ``inf`` where it has no route; ``anycast`` holds the rows'
    anycast latencies.  The TM measures anycast and every announcement and
    uses the fastest: a row takes the column with the largest gain
    ``anycast - latency``, the first one on a tie, and only a strictly
    positive gain beats anycast.  Returns each row's column (``-1`` =
    anycast) and its improvement ``anycast - min(anycast, row)``, which is
    never negative.
    """
    anycast = np.asarray(anycast, dtype=float)
    # Column 0 is anycast itself (gain 0), so a row with no strictly
    # positive gain picks it and reads -1 after the shift.
    gain = np.column_stack([np.zeros(len(anycast)), anycast[:, None] - matrix])
    best = gain.argmax(axis=1)
    return best - 1, gain[np.arange(len(anycast)), best]


def catchment_benefit(
    scenario: Scenario,
    matrix: np.ndarray,
    day: int = 0,
    pinned: Optional[Mapping[int, int]] = None,
) -> float:
    """Eq. 1 over a realized catchment whose rows are ``scenario.user_groups``.

    Each UG's improvement is :func:`tm_choice`'s.  With ``pinned`` (UG id
    -> column) every UG is static: a mapped UG keeps its pinned column
    (``-1`` = no route), an unmapped UG stays on anycast (it had no better
    column when the pins were chosen) and contributes zero.  The
    volume-weighted sum runs in UG order.
    """
    ugs = scenario.user_groups
    if pinned is not None:
        # Column -1 of the widened matrix is an all-``inf`` no-route column.
        at = [pinned.get(ug.ug_id, -1) for ug in ugs]
        widened = np.column_stack([matrix, np.full(len(ugs), np.inf)])
        matrix = widened[np.arange(len(ugs)), at][:, None]
    anycast = [scenario.anycast_latency_ms(ug, day=day) for ug in ugs]
    _, improvement = tm_choice(anycast, matrix)
    total = 0.0
    for ug, gain in zip(ugs, improvement.tolist()):
        total += ug.volume * gain
    return total


def _prefix_catchment(scenario: Scenario, config: AdvertisementConfig, day: int) -> np.ndarray:
    return scenario.routing.latencies(
        scenario.user_groups, [config.peerings_for(prefix) for prefix in config.prefixes], day=day
    )


def realized_benefit(
    scenario: Scenario,
    config: AdvertisementConfig,
    day: int = 0,
    prefix_choice: Optional[Mapping[int, int]] = None,
) -> float:
    """Eq. 1 with ground-truth improvements (optionally pinned prefixes).

    With ``prefix_choice`` given, every UG is static: mapped UGs stay on
    their pinned prefix, unmapped UGs stay on anycast — contributing zero
    improvement (:func:`catchment_benefit`'s ``pinned``).
    """
    pinned = None
    if prefix_choice is not None:
        column = {prefix: j for j, prefix in enumerate(config.prefixes)}
        pinned = {ug_id: column.get(prefix, -1) for ug_id, prefix in prefix_choice.items()}
    return catchment_benefit(scenario, _prefix_catchment(scenario, config, day), day, pinned)


def best_prefix_choices(
    scenario: Scenario, config: AdvertisementConfig, day: int = 0
) -> Dict[int, int]:
    """Each UG's prefix by :func:`tm_choice` on ``day`` (for Fig. 7); a UG
    that stays on anycast is absent."""
    ugs = scenario.user_groups
    anycast = [scenario.anycast_latency_ms(ug, day=day) for ug in ugs]
    choice, _ = tm_choice(anycast, _prefix_catchment(scenario, config, day))
    prefixes = config.prefixes
    return {ug.ug_id: prefixes[j] for ug, j in zip(ugs, choice.tolist()) if j >= 0}
