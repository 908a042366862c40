"""The row engine: Algorithm 1's marginals over every UG row, in arrays.

:func:`repro.core.greedy.lazy_greedy` asks a ``MarginalSource`` for gains;
:class:`RowEngine` is the source every solve runs on (the warm-start memo
of :mod:`repro.core.orchestrator` wraps it).  One engine serves all solves
of one world.  It keeps

* one layout of the rows of every candidate peering's affected UGs
  without learned state, with their latencies and distances: concatenated
  in ascending peering id, ascending within each peering's ``[start,
  end)`` span, gathered from the evaluator's dense matrices and rebuilt
  only when the learned set changes;
* per solve, one volume array and each UG's expected latency per prefix;
* per prefix, the scan state of every row: its accepted compliant
  ingresses ascending by distance in ``kd`` with the running latency sums
  ``ks`` and counts ``kc``, all indexed by world row;
* the learned rows, evaluated against the routing model's compiled
  learned state (:class:`LearnedRows`).

A marginal is reduced in one fixed order: ``vol @ gain`` (initial heap) or
``contrib.sum()`` (refresh) over the unlearned rows, then the learned
rows' terms added one at a time in row order.  Everything before that is
elementwise, so a warm solve can patch a few rows' terms and replay the
same summation bit for bit (:meth:`RowEngine.patch`), and a refresh can
compute the contributions of the stale heap-top peerings in the same pass
as its own, each summed later over its own piece.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.telemetry import METRICS

#: Columns a round's kept-ingress table starts with; it doubles whenever a
#: row fills (few UGs ever see more accepted compliant ingresses per prefix).
INITIAL_SCAN_WIDTH = 4

#: Extra stale heap-top peerings whose marginals are computed in the same
#: pass as a requested refresh (identical values, fewer passes).
SPECULATIVE_REFRESHES = 7

#: A marginal's summation breakdown: the per-row contribution vector of the
#: unlearned rows and the ordered terms of the learned ones (the shared
#: empty tuple when the peering has none).
MarginalDetail = Tuple["np.ndarray", Union["np.ndarray", Tuple[()]]]

#: A marginal computed ahead of its refresh: ``(contrib, scan queries,
#: learned terms, learned expected latencies)`` (see RowEngine.begin_round).
_Ahead = Tuple[
    Optional["np.ndarray"], int, Union["np.ndarray", Tuple[()]], Optional["np.ndarray"]
]

#: One learned-row query batch: ``(pid, slots)`` pairs, each asking for the
#: accepted set plus ``pid`` at ``slots`` (ascending, each with ``pid``
#: compliant and not yet accepted).
Queries = Sequence[Tuple[int, "np.ndarray"]]


def initial_gains(base: "np.ndarray", lat: "np.ndarray") -> "np.ndarray":
    """Initial-heap gain per affected UG row: ``max(0, base - lat)``.

    ``np.fmax`` (not ``maximum``) so ``nan`` latencies — unmeasurable
    ingresses — contribute exactly ``0.0``.
    """
    return np.fmax(base - lat, 0.0)


def refresh_contrib(
    dist: "np.ndarray",
    lat: "np.ndarray",
    vol: "np.ndarray",
    d0: "np.ndarray",
    csum: "np.ndarray",
    ccnt: "np.ndarray",
    ob: "np.ndarray",
    base: "np.ndarray",
    d_reuse: float,
) -> Tuple["np.ndarray", "np.ndarray"]:
    """The refresh-marginal vector expression, row for row.

    Returns ``(contrib, shrink)``: per-row volume-weighted improvements
    and the mask of rows where ``dist < d0 < inf`` — the candidate is
    closer than everything kept, so the reuse window would shrink and
    ``csum``/``ccnt`` (read at the old window) no longer describe the kept
    set.  Those rows come back zeroed.  The mask is a guard, not a to-do
    list: :meth:`RowEngine.contrib` never trips it, because it passes such
    rows with ``d0 = dist`` and ``csum``/``ccnt`` re-read at the shrunken
    window, for which the formulas below are exact.
    """
    shrink = (dist < d0) & np.isfinite(d0)
    limit = np.where(dist < d0, dist, d0) + d_reuse
    measurable = ~np.isnan(lat)
    add = (dist <= limit) & measurable
    new_cnt = ccnt + add
    new_sum = csum + np.where(add, lat, 0.0)
    new_p = new_sum / np.maximum(new_cnt, 1)
    new_best = np.where(new_cnt > 0, np.minimum(base, new_p), ob)
    contrib = vol * (ob - new_best)
    if shrink.any():
        contrib[shrink] = 0.0
    return contrib, shrink


def _accumulate(total: float, terms: "np.ndarray") -> float:
    """``total`` plus every term, one at a time in order — never a pairwise
    ``ndarray.sum``, whose grouping a patched replay could not match."""
    for term in terms.tolist():
        total += term
    return total


class LearnedRows:
    """Eq. 2 for the learned UG rows of one solve, in arrays.

    A learned UG's expected latency under an advertised set is a function
    of its compliant subset and its learned state, which the routing model
    compiles once per solve into a :class:`~repro.core.routing_model.
    DominanceTable` with one slot per learned row (``rows``, ascending).
    Per round this keeps each slot's accepted compliant peerings in a
    ``pad``-filled 2-D table (widened as needed, like the engine's ``kd``),
    their peer-ASN bitset, and per outcome-memory entry how many of its
    peerings are accepted.  A batch of queries — the accepted set plus
    ``pid``, for learned rows ``pid`` serves — is then one pass of array
    operations: the table's candidate rule, the outcome override (an entry
    naming ``pid`` whose other members are exactly the accepted ones), and
    a masked mean summed in ascending peering id.
    """

    def __init__(self, engine: "RowEngine", learned: Dict[int, "np.ndarray"]) -> None:
        self.rows = np.unique(np.concatenate(list(learned.values())))
        #: Peering -> slots of its learned rows (ascending, like the rows).
        self.slots = {
            pid: np.searchsorted(self.rows, rows) for pid, rows in learned.items()
        }
        self._ugs = engine.ugs
        self._evaluator = engine.evaluator
        self.table = table = engine.model.dominance_table(
            [self._ugs[row].ug_id for row in self.rows.tolist()]
        )
        self._d_reuse = engine.d_reuse
        self._lat = engine.lat_mat
        self._dist = engine.dist_mat
        #: Peering id -> matrix column (the pad reads column 0, masked).
        self._col = np.zeros(table.k, dtype=np.intp)
        for pid, col in engine.col_of.items():
            self._col[pid] = col
        # Outcome entries by member peering: entries naming ``pid`` are
        # ``_entry[_entry_start[pid]:_entry_start[pid + 1]]``.
        sizes = np.diff(table.out_start)
        order = np.argsort(table.out_members, kind="stable")
        self._entry = np.repeat(np.arange(table.n_outcomes), sizes)[order]
        self._entry_start = np.searchsorted(
            table.out_members[order], np.arange(table.k + 1)
        )
        self._entry_size = sizes

    def begin_round(self) -> None:
        """Nothing accepted yet."""
        n = len(self.rows)
        self._acc = np.full((n, INITIAL_SCAN_WIDTH), self.table.pad, dtype=np.int64)
        self._n_acc = np.zeros(n, dtype=np.intp)
        self._bits = np.zeros((n, self.table.contexts.shape[2]), dtype=np.uint64)
        self._in_acc = np.zeros(self.table.n_outcomes, dtype=np.intp)

    def _entries(self, pid: int) -> "np.ndarray":
        return self._entry[self._entry_start[pid] : self._entry_start[pid + 1]]

    def kept(self, queries: Queries) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(candidates, kept mask)``, one row per (query, slot) in order:
        the compliant set ascending (``pad`` beyond its end) and which of
        it Eq. 2 averages over."""
        slots = np.concatenate([at for _, at in queries])
        pids = np.repeat([pid for pid, _ in queries], [len(at) for _, at in queries])
        rows = self.rows[slots]
        width = int(self._n_acc[slots].max(initial=0))
        cand = np.sort(
            np.concatenate([self._acc[slots, :width], pids[:, None]], axis=1), axis=1
        )
        table = self.table
        bits = self._bits[slots]
        bits[np.arange(len(slots)), table.pid_word[pids]] |= table.pid_bit[pids]
        cols = self._col[cand]
        kept = table.kept(slots, cand, bits, self._dist[rows[:, None], cols], self._d_reuse)
        start = 0
        for pid, at in queries:
            entries = self._entries(pid)
            if len(entries) and len(at):
                owner = table.out_slot[entries]
                pos = np.minimum(np.searchsorted(at, owner), len(at) - 1)
                n_owner = self._n_acc[owner]
                hit = (
                    (at[pos] == owner)
                    & (self._entry_size[entries] == n_owner + 1)
                    & (self._in_acc[entries] == n_owner)
                )
                if hit.any():
                    row = start + pos[hit]
                    kept[row] = cand[row] == table.out_winner[entries[hit]][:, None]
            start += len(at)
        return cand, kept

    def expected(self, queries: Queries) -> "np.ndarray":
        """Eq.-2 expected latency (``+inf``: nothing measurable), one per
        (query, slot) in order."""
        slots = np.concatenate([at for _, at in queries])
        rows = self.rows[slots]
        if not self._n_acc[slots].any():
            # Singletons: (0.0 + latency) / 1 is the latency itself.
            cols = [np.full(len(at), self._col[pid]) for pid, at in queries]
            return self._lat[rows, np.concatenate(cols)]
        cand, kept = self.kept(queries)
        lat = self._lat[rows[:, None], self._col[cand]]
        use = kept & (lat != np.inf)
        total = np.cumsum(np.where(use, lat, 0.0), axis=1)[:, -1]
        count = use.sum(axis=1)
        value = np.full(len(slots), np.inf)
        np.divide(total, count, out=value, where=count > 0)
        return value

    def remember(self, column: "np.ndarray") -> None:
        """Leave each learned row's expected latency under the round's final
        accepted set (``column``, by world row) in the evaluator's Eq.-2
        memo: evaluating the solved configuration asks for exactly these."""
        for slot in np.flatnonzero(self._n_acc > 1).tolist():
            row = int(self.rows[slot])
            value = float(column[row])
            self._evaluator.remember_expected(
                self._ugs[row],
                frozenset(self._acc[slot, : self._n_acc[slot]].tolist()),
                None if value == np.inf else value,
            )

    def accept(self, pid: int) -> None:
        """Fold an accepted peering into the round state of its slots."""
        slots = self.slots[pid]
        n_acc = self._n_acc[slots]
        if n_acc.max(initial=0) == self._acc.shape[1]:
            self._acc = np.concatenate(
                [self._acc, np.full_like(self._acc, self.table.pad)], axis=1
            )
        self._acc[slots, n_acc] = pid
        self._n_acc[slots] = n_acc + 1
        self._bits[slots, self.table.pid_word[pid]] |= self.table.pid_bit[pid]
        self._in_acc[self._entries(pid)] += 1


class RowEngine:
    """Marginals of one world's solves, computed over every UG row.

    Built once per orchestrator, after the evaluator materialised its
    dense latency/distance matrices; :meth:`begin_solve` readies it for
    one solve, after which it is the solve's ``MarginalSource``.
    """

    lookahead = SPECULATIVE_REFRESHES

    def __init__(self, scenario, evaluator, model, affected: Dict[int, Sequence]) -> None:
        self.scenario = scenario
        self.evaluator = evaluator
        self.model = model
        self.ugs = scenario.user_groups
        self.d_reuse = model.d_reuse_km
        self.lat_mat = evaluator.latency_matrix
        self.dist_mat = evaluator.distance_matrix
        self.col_of: Dict[int, int] = evaluator.peering_columns
        self._row_of = {ug.ug_id: row for row, ug in enumerate(self.ugs)}
        #: Peering -> its affected UGs, in scenario order.
        self._affected = affected
        #: The learned set the row layout below was split for.
        self._prepped: Optional[frozenset] = None
        #: Peering -> ``(rows, latency, distance)`` of its unlearned rows
        #: (``nan`` latency: unmeasurable): views of its span of the layout.
        self.arrays: Dict[int, Tuple["np.ndarray", "np.ndarray", "np.ndarray"]] = {}
        #: Peering -> its learned rows, ascending (absent when none).
        self.learned: Dict[int, "np.ndarray"] = {}
        self._fast_queries = METRICS.counter("evaluator.scan_fast_queries")
        self._slow_queries = METRICS.counter("evaluator.scan_slow_queries")

    # -- per solve ------------------------------------------------------------

    def begin_solve(
        self, budget: int, peering_ids: Sequence[int], learned_ug_ids: Sequence[int]
    ) -> "RowEngine":
        """Ready a solve of ``budget`` prefixes over the candidate
        ``peering_ids`` (ascending) with ``learned_ug_ids`` learned."""
        self.peering_ids = peering_ids
        ugs = self.ugs
        self._anycast = np.array([self.scenario.anycast_latency_ms(ug) for ug in ugs])
        self.vol = np.array([ug.volume for ug in ugs])
        #: Expected latency per (UG row, prefix); +inf where the prefix is
        #: unusable for the UG (None), so row minima need no masking.
        self._exp = np.full((len(ugs), budget), np.inf)
        self._split(learned_ug_ids)
        #: The learned rows, evaluated against the compiled model.
        self._learned = LearnedRows(self, self.learned) if self.learned else None
        return self

    def _split(self, learned_ug_ids: Sequence[int]) -> None:
        """Lay out every peering's unlearned rows, latencies and distances
        end to end (ascending peering id, then row) and split off its
        learned rows; a solve under the same learned set as the last one
        reuses the layout."""
        learned_set = frozenset(learned_ug_ids)
        if learned_set == self._prepped:
            return
        row_of = self._row_of
        pids = sorted(self._affected)
        counts = [len(self._affected[pid]) for pid in pids]
        rows = np.fromiter(
            (row_of[ug.ug_id] for pid in pids for ug in self._affected[pid]),
            dtype=np.intp,
            count=sum(counts),
        )
        # Position in ``pids`` of each row's peering.
        owner = np.repeat(np.arange(len(pids)), counts)
        learned_rows = np.array(
            sorted(row_of[ug_id] for ug_id in learned_set if ug_id in row_of),
            dtype=np.intp,
        )
        self.learned = {}
        if len(learned_rows):
            is_learned = np.isin(rows, learned_rows)
            held = np.bincount(owner[is_learned], minlength=len(pids))
            pieces = np.split(rows[is_learned], np.cumsum(held)[:-1])
            self.learned = {
                pid: piece for pid, piece in zip(pids, pieces) if len(piece)
            }
            rows, owner = rows[~is_learned], owner[~is_learned]
        cols = np.array([self.col_of[pid] for pid in pids], dtype=np.intp)[owner]
        lat = self.lat_mat[rows, cols]
        lat[np.isinf(lat)] = np.nan  # the matrices encode None as +inf
        dist = self.dist_mat[rows, cols]
        sizes = np.bincount(owner, minlength=len(pids))
        end = np.cumsum(sizes)
        start = end - sizes
        #: The layout itself and each peering's ``[start, end)`` span of it.
        self._layout = (rows, lat, dist)
        self._spans = dict(zip(pids, zip(start.tolist(), end.tolist())))
        self.arrays = {
            pid: (rows[lo:hi], lat[lo:hi], dist[lo:hi])
            for pid, (lo, hi) in self._spans.items()
        }
        self._prepped = learned_set

    # -- per prefix -----------------------------------------------------------

    def begin_round(self, prefix: int) -> None:
        """Start ``prefix`` with nothing accepted.

        Per unlearned row, the accepted compliant ingresses are kept
        ascending by distance in ``kd`` (``+inf`` beyond the last one) with
        the running sums ``ks`` and counts ``kc`` of their measurable
        latencies, one column longer: ``ks[r, j]`` covers the row's ``j``
        closest, and past the last accepted ingress it repeats the row
        total, as a prefix sum over ``+inf`` padding would.  The kept set
        of a reuse window ``limit`` is therefore one count-and-gather —
        ``k = (kd[r] <= limit).sum()``, then ``ks[r, k]``, ``kc[r, k]`` —
        for any ``limit``.  Four 1-D arrays cache that read at the row's
        current window, so a refresh is a handful of array ops: ``d0``
        closest accepted distance (inf while none kept), ``csum`` /
        ``ccnt`` sum and count of measurable kept-set latencies, ``ob`` the
        row's best latency today, ``min(base, current expected)``.
        """
        self._prefix = prefix
        # Best latency each UG gets from anycast or *another* prefix.
        # Fixed for the whole inner loop: accepts only change the current
        # prefix's expected latencies, and its column is still all-inf.
        base = self._anycast
        if len(base):
            base = np.minimum(base, self._exp.min(axis=1))
        self._base = base
        n = len(self.ugs)
        self.d0_arr = np.full(n, np.inf)
        self.csum_arr = np.zeros(n)
        self.ccnt_arr = np.zeros(n)
        self.ob_arr = base.copy()
        self.kd = np.full((n, INITIAL_SCAN_WIDTH), np.inf)
        self.ks = np.zeros((n, INITIAL_SCAN_WIDTH + 1))
        self.kc = np.zeros((n, INITIAL_SCAN_WIDTH + 1))
        #: ``pid -> (contrib, scan queries, learned terms, learned expected
        #: latencies)``, computed in a batch ahead of its refresh or for
        #: its last one; valid until the next accept.  ``contrib`` is a
        #: piece of the batch's buffer (``None``: not computed yet), the
        #: learned parts are ``()`` and ``None`` when ``pid`` has none.
        self._ahead: Dict[int, _Ahead] = {}
        if self._learned is not None:
            self._learned.begin_round()
            # Nothing is accepted yet, so every learned query is a
            # singleton: one batch answers them all for the initial gains.
            slots = self._learned.slots
            self._ahead = {
                pid: (None, 0, terms, value)
                for pid, (terms, value) in zip(
                    slots, self._learned_terms(list(slots.items()))
                )
            }

    def begin_prefix(self, prefix: int) -> List[float]:
        self.begin_round(prefix)
        return [self.initial(pid) for pid in self.peering_ids]

    def initial(self, pid: int) -> float:
        """Initial-heap gain: with nothing accepted yet, each unlearned row
        contributes ``vol * max(0, base - latency)`` — one dot product —
        and each learned row its singleton term, in row order (``+ 0.0``
        where the peering is no gain, which leaves the sum as it was)."""
        rows, lat, _dist = self.arrays[pid]
        self._fast_queries.value += len(lat)
        delta = float(self.vol[rows] @ initial_gains(self._base[rows], lat))
        ahead = self._ahead.get(pid)
        if ahead is None:
            return delta
        terms = ahead[2]
        self._slow_queries.value += len(terms)
        return _accumulate(delta, terms)

    def _learned_terms(
        self, queries: Queries
    ) -> List[Tuple["np.ndarray", "np.ndarray"]]:
        """``(marginal terms, expected latencies)`` per query of learned
        rows: each row's term is its volume times how much its best
        latency improves."""
        slots = np.concatenate([at for _, at in queries])
        rows = self._learned.rows[slots]
        value = self._learned.expected(queries)
        base = self._base[rows]
        old_best = np.minimum(base, self._exp[rows, self._prefix])
        new_best = np.where(
            value == np.inf, old_best, np.where(value < base, value, base)
        )
        terms = self.vol[rows] * (old_best - new_best)
        cut = np.cumsum([len(at) for _, at in queries[:-1]], dtype=np.intp)
        return list(zip(np.split(terms, cut), np.split(value, cut)))

    def _kept_at(self, rows, limit) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(latency sum, count)`` of ``rows``' accepted ingresses within
        ``limit`` km (one limit per row)."""
        k = (self.kd[rows] <= limit[:, None]).sum(axis=1)
        return self.ks[rows, k], self.kc[rows, k]

    def contrib(self, pids: Sequence[int]) -> List[Tuple["np.ndarray", int]]:
        """Per peering of ``pids``: what adding it to the accepted set gains
        on each of its unlearned rows, and the scan queries that took.

        One :func:`refresh_contrib` pass over the peerings' spans of the
        layout, gathered end to end, with the cached ``d0``/``csum``/
        ``ccnt`` of their rows; each peering's piece is a view of the one
        result.  A row whose closest accepted ingress is farther than its
        peering would have its window shrunk to ``dist + d_reuse``: for
        those rows the kept set is re-read from ``kd``/``ks``/``kc`` at the
        shrunken limit and ``d0`` replaced by ``dist``, which is exactly the
        state the formulas expect — so every row, shrinking or not, is one
        element of the same call, and a later volume patch can reproduce a
        piece's sum bit for bit by substituting elements.
        """
        spans = [self._spans[pid] for pid in pids]
        if len(spans) == 1:
            at = slice(*spans[0])
        else:
            at = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
        rows, lat, dist = (column[at] for column in self._layout)
        d0 = self.d0_arr[rows]
        csum = self.csum_arr[rows]
        ccnt = self.ccnt_arr[rows]
        shrinking = np.nonzero((dist < d0) & np.isfinite(d0))[0]
        if len(shrinking):
            closer = dist[shrinking]
            d0[shrinking] = closer
            csum[shrinking], ccnt[shrinking] = self._kept_at(
                rows[shrinking], closer + self.d_reuse
            )
        contrib, _shrink = refresh_contrib(
            dist, lat, self.vol[rows], d0, csum, ccnt, self.ob_arr[rows],
            self._base[rows], self.d_reuse,
        )
        bounds = [0]
        for lo, hi in spans:
            bounds.append(bounds[-1] + hi - lo)
        # A piece's scan queries: its rows plus its shrink-row reads.
        marks = bounds
        if len(shrinking):
            cut = np.searchsorted(shrinking, bounds).tolist()
            marks = [bound + k for bound, k in zip(bounds, cut)]
        return [
            (contrib[bounds[i] : bounds[i + 1]], marks[i + 1] - marks[i])
            for i in range(len(spans))
        ]

    def marginal(
        self, pid: int, stale: Sequence[int] = ()
    ) -> Tuple[float, MarginalDetail]:
        """A fresh marginal plus its summation detail.

        The unlearned rows' contributions are summed by one
        ``contrib.sum()``; the learned terms follow one at a time in row
        order.  The detail lets a later warm solve re-run this exact
        summation with a few elements substituted (:meth:`patch`).  Up to
        :data:`SPECULATIVE_REFRESHES` of the ``stale`` peerings are
        computed in the same pass and kept for their own refreshes, which
        usually follow before the next accept; the scan counters count a
        marginal when it is served.
        """
        ahead = self._ahead.get(pid)
        if ahead is None or ahead[0] is None:
            self._compute_ahead(pid, stale)
            ahead = self._ahead[pid]
        piece, queries, terms, _value = ahead
        self._fast_queries.value += queries
        # A copy, so a warm memo keeping the detail does not pin the
        # batch's buffer.
        contrib = piece.copy()
        delta = float(contrib.sum())
        if not len(terms):
            # The shared empty tuple, not a fresh array: a warm memo holds
            # one detail per marginal, and ``(ndarray, ())`` is a tuple the
            # cyclic GC stops tracking — thousands of long-lived objects
            # fewer per solve for every later full collection to walk.
            return delta, (contrib, ())
        self._slow_queries.value += len(terms)
        return _accumulate(delta, terms), (contrib, terms)

    def _compute_ahead(self, pid: int, stale: Sequence[int]) -> None:
        """Compute ``pid`` and up to :data:`SPECULATIVE_REFRESHES` of the
        ``stale`` peerings not computed yet, in one batch."""
        ahead = self._ahead
        batch = [pid] + [
            other for other in stale if other not in ahead or ahead[other][0] is None
        ][:SPECULATIVE_REFRESHES]
        learned = self._learned
        known = {}
        if learned is not None:
            mine = [(p, learned.slots[p]) for p in batch if p in learned.slots]
            if mine:
                known = dict(zip((p for p, _ in mine), self._learned_terms(mine)))
        for p, (piece, queries) in zip(batch, self.contrib(batch)):
            terms, value = known.get(p, ((), None))
            ahead[p] = (piece, queries, terms, value)

    def refresh(self, pid: int, stale: Sequence[int]) -> float:
        return self.marginal(pid, stale)[0]

    def patch(
        self, pid: int, recorded: MarginalDetail, changed_rows: Set[int]
    ) -> Optional[Tuple[float, MarginalDetail]]:
        """Volume-patch a recorded marginal: bit-equal, far cheaper.

        Valid while the scan state matches the one ``recorded`` was computed
        against (the caller replays the same accept sequence): only the
        ``changed_rows`` terms are recomputed, then the identical float
        summation is replayed.  Returns ``None`` when the recorded shape no
        longer fits the learned split (caller re-evaluates).
        """
        contrib0, terms = recorded
        learned = self._learned
        slots = learned.slots.get(pid) if learned is not None else None
        if len(contrib0) != len(self.arrays[pid][0]) or len(terms) != (
            0 if slots is None else len(slots)
        ):
            return None  # learned split drifted under the record
        patched = self._patch_contrib(pid, contrib0, changed_rows)
        total = float(patched.sum())
        if slots is None:
            return total, (patched, terms)
        at = np.flatnonzero(
            np.isin(learned.rows[slots], np.fromiter(changed_rows, np.intp))
        )
        if len(at):
            self._slow_queries.value += len(at)
            terms = terms.copy()
            terms[at] = self._learned_terms([(pid, slots[at])])[0][0]
        return _accumulate(total, terms), (patched, terms)

    def _patch_contrib(
        self, pid: int, recorded: "np.ndarray", changed_rows: Set[int]
    ) -> "np.ndarray":
        """A recorded ``contrib`` vector with ``changed_rows`` recomputed.

        A volume shift changes marginal *weights* only — none of the scan
        state depends on volumes — so the shifted rows' terms are
        recomputed with IEEE-double scalar clones of the vectorized ops in
        :meth:`contrib` and substituted into a copy of the vector recorded
        for the same accept sequence.  (Scalar on purpose: a patch touches
        a handful of rows, where array set-up costs more than it saves.)
        """
        rows, lat, dist = self.arrays[pid]
        patched = recorded.copy()
        d_reuse = self.d_reuse
        for row in changed_rows:
            pos = int(np.searchsorted(rows, row))
            if pos >= len(rows) or rows[pos] != row:
                continue  # a learned row: its term is patched separately
            d0_s = float(self.d0_arr[row])
            dist_s = float(dist[pos])
            if dist_s < d0_s and math.isfinite(d0_s):
                # The window shrinks: the kept set at the closer limit.
                k = int(np.searchsorted(self.kd[row], dist_s + d_reuse, side="right"))
                d0_s = dist_s
                csum_s = float(self.ks[row, k])
                ccnt_s = float(self.kc[row, k])
                self._fast_queries.value += 1
            else:
                csum_s = float(self.csum_arr[row])
                ccnt_s = float(self.ccnt_arr[row])
            ob_s = float(self.ob_arr[row])
            lat_s = float(lat[pos])
            limit_s = (dist_s if dist_s < d0_s else d0_s) + d_reuse
            add_s = dist_s <= limit_s and not math.isnan(lat_s)
            new_cnt = ccnt_s + (1.0 if add_s else 0.0)
            new_sum = csum_s + (lat_s if add_s else 0.0)
            new_p = new_sum / (new_cnt if new_cnt > 1.0 else 1.0)
            base_s = float(self._base[row])
            if new_cnt > 0:
                new_best = base_s if base_s < new_p else new_p
            else:
                new_best = ob_s
            patched[pos] = float(self.vol[row]) * (ob_s - new_best)
        return patched

    def accept(self, pid: int) -> None:
        """Fold an accepted peering into the scan state of its rows and
        write their new expected latencies into the prefix's column.

        One vectorized sorted insert over all of ``pid``'s unlearned rows:
        ``pid`` lands after every accepted ingress at most as far
        (``bisect_right``), and each running sum behind it becomes *its
        predecessor* plus ``pid``'s latency (``+ 0.0`` when unmeasurable)
        — sums are built by insertion, never re-accumulated, so a row's
        doubles depend only on the order its ingresses were accepted in.
        ``+inf`` marks a row whose kept set has no measurable ingress.
        """
        column = self._exp[:, self._prefix]
        rows, lat, dist = self.arrays[pid]
        if np.isfinite(self.kd[rows, -1]).any():
            self._widen()
        kd, ks, kc = self.kd[rows], self.ks[rows], self.kc[rows]
        idx = (kd <= dist[:, None]).sum(axis=1)  # bisect_right
        behind = np.arange(1, ks.shape[1]) > idx[:, None]
        measurable = ~np.isnan(lat)
        lat0 = np.where(measurable, lat, 0.0)[:, None]
        ks[:, 1:] = np.where(behind, ks[:, :-1] + lat0, ks[:, 1:])
        kc[:, 1:] = np.where(behind, kc[:, :-1] + measurable[:, None], kc[:, 1:])
        kd[:, 1:] = np.where(behind[:, :-1], kd[:, :-1], kd[:, 1:])
        kd[np.arange(len(rows)), idx] = dist
        self.kd[rows], self.ks[rows], self.kc[rows] = kd, ks, kc
        # The rows' new reuse windows, read back off the updated tables.
        d0 = kd[:, 0]
        csum, ccnt = self._kept_at(rows, d0 + self.d_reuse)
        value = np.full(len(rows), np.inf)
        np.divide(csum, ccnt, out=value, where=ccnt > 0)
        self.d0_arr[rows] = d0
        self.csum_arr[rows] = csum
        self.ccnt_arr[rows] = ccnt
        self.ob_arr[rows] = np.minimum(self._base[rows], value)
        column[rows] = value
        learned = self._learned
        if learned is not None and pid in learned.slots:
            slots = learned.slots[pid]
            ahead = self._ahead.get(pid)
            value = ahead[3] if ahead is not None else learned.expected([(pid, slots)])
            column[learned.rows[slots]] = value
            learned.accept(pid)
        self._ahead = {}

    def _widen(self) -> None:
        """Double the kept-ingress tables' width, padding preserved."""
        width = self.kd.shape[1]
        self.kd = np.concatenate(
            [self.kd, np.full((len(self.kd), width), np.inf)], axis=1
        )
        self.ks = np.concatenate(
            [self.ks, np.repeat(self.ks[:, -1:], width, axis=1)], axis=1
        )
        self.kc = np.concatenate(
            [self.kc, np.repeat(self.kc[:, -1:], width, axis=1)], axis=1
        )

    def end_prefix(self) -> None:
        if self._learned is not None:
            self._learned.remember(self._exp[:, self._prefix])
