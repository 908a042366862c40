"""The row engine: Algorithm 1's marginals over every UG row, in arrays.

:func:`repro.core.greedy.lazy_greedy` asks a ``MarginalSource`` for gains;
:class:`RowEngine` is the source every solve runs on (the warm-start memo
of :mod:`repro.core.orchestrator` wraps it).  One engine serves all solves
of one world.  It keeps

* the evaluator's :class:`~repro.core.benefit.SlotStore`, read as it is:
  every compliant (UG row, peering) slot with its latency and distance,
  in ascending peering id, ascending row within each peering's ``[start,
  end)`` span;
* per solve, one volume array, each UG's expected latency per prefix and
  the ``learned`` mask of the slots whose UG has learned state, with the
  one :class:`~repro.core.routing_model.DominanceTable` the evaluator's
  ``learned_table`` gets for them;
* per prefix, the scan state of every row: its accepted compliant
  ingresses ascending by distance in ``kd`` with the running latency sums
  ``ks`` and counts ``kc`` — and, while any slot is learned, their layout
  slots in ``kpos`` — all indexed by world row, and the row's cached read
  of them packed with its base latency and volume in one ``(6, rows)``
  array, so a batch gathers its rows' state in one ``take``.

A UG without learned state is one whose table is empty, so Eq. 2 keeps its
accepted ingresses within the reuse window and the scan state answers it
in a handful of array operations; a learned slot asks the table which of
the accepted set ``kpos`` holds it keeps.  A marginal is one vector over
its peering's span, reduced in one fixed order: ``vol @ gain`` (initial
heap) or ``contrib.sum()`` (refresh) over the unlearned slots, then the
learned slots' terms added one at a time in row order.  A learned query's
expected latency is the same :func:`~repro.core.benefit.masked_mean` of the
same kept set that :meth:`BenefitEvaluator.expected_latencies
<repro.core.benefit.BenefitEvaluator.expected_latencies>` computes for the
solved configuration.  Everything before that is elementwise, so

* a round's initial heap is one slot pass: one volume and one gain per
  slot of the whole layout, then per peering the dot of two views of its
  span;
* a refresh computes the vectors of the stale heap-top peerings in the
  same pass as its own, each reduced later over its own piece; it asks the
  driver for that stale list only when it computes such a batch;
* a warm solve patches a few rows' terms and replays the same summation
  bit for bit (:meth:`RowEngine.patch`), at positions found once per solve
  (:meth:`RowEngine.patch_sites`).
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.benefit import masked_mean
from repro.telemetry import METRICS

#: Columns a round's kept-ingress table starts with; it doubles whenever a
#: row fills (few UGs ever see more accepted compliant ingresses per prefix).
INITIAL_SCAN_WIDTH = 4

#: Extra stale heap-top peerings whose marginals are computed in the same
#: pass as a requested refresh (identical values, fewer passes).
SPECULATIVE_REFRESHES = 7

#: A marginal's summation breakdown: one term per slot of the peering's
#: span, the learned slots' terms in place.
MarginalDetail = np.ndarray

#: A marginal computed ahead of its refresh: ``(contrib, scan queries,
#: expected latencies of its learned slots)``, the last ``None`` when the
#: span has none (see RowEngine.contrib).
_Ahead = Tuple["np.ndarray", int, Optional["np.ndarray"]]

#: Where a volume patch of one peering writes: ``(rows, positions,
#: learned_at)`` — its changed unlearned rows and their positions in its
#: span (lists, ascending), and the layout slots of its changed learned
#: rows (see RowEngine.patch_sites).
PatchSites = Tuple[List[int], List[int], "np.ndarray"]

#: One learned-slot query batch: ``(pid, at)`` pairs, each asking for the
#: accepted set plus ``pid`` at the layout slots ``at`` (learned slots of
#: ``pid``'s span, ascending, none of them accepted yet).
Queries = Sequence[Tuple[int, "np.ndarray"]]


def initial_gains(
    base: "np.ndarray", lat: "np.ndarray", out: Optional["np.ndarray"] = None
) -> "np.ndarray":
    """Initial-heap gain per affected UG row: ``max(0, base - lat)``, into
    ``out`` if given (which may be ``base``).

    ``np.fmax`` (not ``maximum``) so ``nan`` latencies — unmeasurable
    ingresses — contribute exactly ``0.0``.
    """
    out = np.subtract(base, lat, out=out)
    return np.fmax(out, 0.0, out=out)


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
) -> "np.ndarray":
    """The refresh-marginal vector expression, row for row: per-row
    volume-weighted improvements.

    ``csum``/``ccnt`` must describe the kept set at the window ``d0 +
    d_reuse``, which the candidate cannot shrink: ``dist >= d0``, or ``d0``
    is ``inf`` (nothing kept yet).  :meth:`RowEngine._scan` passes a row
    whose candidate is closer with ``d0 = dist`` and ``csum``/``ccnt``
    re-read at the shrunken window.
    """
    limit = np.minimum(dist, d0) + d_reuse
    measurable = ~np.isnan(lat)
    add = (dist <= limit) & measurable
    new_cnt = ccnt + add
    new_sum = csum + np.where(add, lat, 0.0)
    new_p = new_sum / np.maximum(new_cnt, 1)
    new_best = np.where(new_cnt > 0, np.minimum(base, new_p), ob)
    return vol * (ob - new_best)


def _accumulate(total: float, terms: "np.ndarray") -> float:
    """``total`` plus every term, one at a time in order — never a pairwise
    ``ndarray.sum``, whose grouping a patched replay could not match."""
    for term in terms.tolist():
        total += term
    return total


class RowEngine:
    """Marginals of one world's solves, computed over every UG row.

    Built once per orchestrator, after the evaluator filled its slot
    store; :meth:`begin_solve` readies it for one solve, after which it is
    the solve's ``MarginalSource``.
    """

    lookahead = SPECULATIVE_REFRESHES

    def __init__(self, scenario, evaluator, model) -> None:
        self.scenario = scenario
        self.evaluator = evaluator
        self.model = model
        self.ugs = scenario.user_groups
        self.d_reuse = model.d_reuse_km
        self._row_of = {ug.ug_id: row for row, ug in enumerate(self.ugs)}
        store = evaluator.store
        #: The layout itself and each peering's ``[start, end)`` span of it.
        rows, lat, dist = self._layout = (store.rows, store.latency, store.distance)
        #: Latency and distance as one ``(2, slots)`` array (the store's).
        self._slots = store.values
        self._spans = store.spans
        #: Peering -> ``(rows, latency, distance)`` of its span (``nan``
        #: latency: unmeasurable), views of the layout.
        self.arrays: Dict[int, Tuple["np.ndarray", "np.ndarray", "np.ndarray"]] = {
            pid: (rows[lo:hi], lat[lo:hi], dist[lo:hi])
            for pid, (lo, hi) in self._spans.items()
        }
        #: The peering of each slot, then one entry for ``kpos``'s padding
        #: (the layout's length) reading as the table's pad; built by the
        #: first solve with learned slots.
        self._pid: Optional["np.ndarray"] = None
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
        #: The compiled table of the learned rows and each row's slot there
        #: (-1: not learned), the one ``expected_latencies`` reads too.
        table, self._slot_of = self.evaluator.learned_table(learned_ug_ids)
        self._table = table
        #: Per slot: whether its UG has learned state.
        self.learned = self._slot_of[self._layout[0]] >= 0
        #: Peering -> which slots of its span are learned, for the spans
        #: holding any (views of ``learned``), and their layout slots.
        self._held: Dict[int, "np.ndarray"] = {}
        self._learned_at: Dict[int, "np.ndarray"] = {}
        if table is None:
            return self
        self._learned_rows = np.flatnonzero(self._slot_of >= 0)
        self._held = {
            pid: held
            for pid, (lo, hi) in self._spans.items()
            if (held := self.learned[lo:hi]).any()
        }
        self._learned_at = {
            pid: self._spans[pid][0] + np.flatnonzero(held)
            for pid, held in self._held.items()
        }
        if self._pid is None:
            spans = self._spans
            self._pid = np.append(
                np.repeat(list(spans), [hi - lo for lo, hi in spans.values()]), 0
            )
        self._pid[-1] = table.pad
        return self

    # -- per prefix -----------------------------------------------------------

    def begin_round(self, prefix: int) -> None:
        """Start ``prefix`` with nothing accepted.

        Per row, the accepted compliant ingresses are kept ascending by
        distance in ``kd`` (``+inf`` beyond the last one) with the running
        sums ``ks`` and counts ``kc`` of their measurable latencies, one
        column longer: ``ks[r, j]`` covers the row's ``j`` closest, and
        past the last accepted ingress it repeats the row total, as a
        prefix sum over ``+inf`` padding would.  The kept set of a reuse
        window ``limit`` is therefore one count-and-gather — ``k = (kd[r]
        <= limit).sum()``, then ``ks[r, k]``, ``kc[r, k]`` — for any
        ``limit``.  Four rows of the packed ``(6, rows)`` state cache that
        read at the row's current window, so an unlearned refresh is a
        handful of array ops: ``d0`` closest accepted distance (inf while
        none kept), ``csum`` / ``ccnt`` sum and count of measurable kept-set
        latencies, ``ob`` the row's best latency today, ``min(base, current
        expected)``; its last two rows are the row's ``base`` and volume.
        While any
        slot is learned, ``kpos`` holds the same ingresses' layout slots
        (the layout's length beyond the last), which is the accepted set a
        learned query reads, with each learned row's accepted peer-ASN
        bitset beside it.
        """
        self._prefix = prefix
        # Best latency each UG gets from anycast or *another* prefix.
        # Fixed for the whole inner loop: accepts only change the current
        # prefix's expected latencies, and its column is still all-inf.
        base = self._anycast
        if len(base):
            base = np.minimum(base, self._exp.min(axis=1))
        n = len(self.ugs)
        self._state = state = np.empty((6, n))
        state[0] = np.inf
        state[1:3] = 0.0
        state[3] = state[4] = base
        state[5] = self.vol
        self.d0_arr, self.csum_arr, self.ccnt_arr, self.ob_arr, self._base, _ = state
        self.kd = np.full((n, INITIAL_SCAN_WIDTH), np.inf)
        self.ks = np.zeros((n, INITIAL_SCAN_WIDTH + 1))
        self.kc = np.zeros((n, INITIAL_SCAN_WIDTH + 1))
        self.kpos = None
        #: ``pid -> _Ahead``, computed in a batch ahead of its refresh or
        #: for its last one; valid until the next accept.
        self._ahead: Dict[int, _Ahead] = {}
        table = self._table
        if table is None:
            return
        self.kpos = np.full((n, INITIAL_SCAN_WIDTH), len(self.learned), dtype=np.intp)
        self._bits = np.zeros(
            (len(self._learned_rows), table.contexts.shape[2]), dtype=np.uint64
        )
        # Nothing is accepted yet, so every learned query is a singleton:
        # one batch answers them all for the initial gains (in ascending
        # peering id, so in ascending slot).
        self._first = np.zeros(len(self.learned))
        self._first[self.learned] = self._learned(list(self._learned_at.items()))[0]

    def begin_prefix(self, prefix: int) -> List[float]:
        self.begin_round(prefix)
        return self.initial(self.peering_ids)

    def initial(self, pids: Sequence[int]) -> List[float]:
        """Initial-heap gains of ``pids``: with nothing accepted yet, each
        unlearned row contributes ``vol * max(0, base - latency)`` — one
        dot product per peering — and each learned row its singleton term,
        in row order (``+ 0.0`` where the peering is no gain, which leaves
        the sum as it was).

        One gather of the rows' volumes and one :func:`initial_gains` pass
        cover every slot of the layout, so an unlearned peering's gain is
        the dot of two views of its span: the same doubles, in the same
        order, as a dot of the gathered rows (``ndarray.dot``, the BLAS
        ``ddot`` that ``@`` also calls on two vectors, with less call
        overhead)."""
        if not pids:
            return []
        rows, lat = self._layout[0], self._layout[1]
        # Both slot arrays live for this call only: a solve keeps no
        # layout-sized array of its own.
        vol = self.vol[rows]
        base = self._base[rows]
        gain = initial_gains(base, lat, out=base)
        spans, held_of = self._spans, self._held
        gains = []
        fast = slow = 0
        for pid in pids:
            lo, hi = spans[pid]
            held = held_of.get(pid)
            if held is None:
                fast += hi - lo
                gains.append(float(vol[lo:hi].dot(gain[lo:hi])))
                continue
            free = ~held
            at = self._learned_at[pid]
            fast += hi - lo - len(at)
            slow += len(at)
            delta = float(vol[lo:hi][free].dot(gain[lo:hi][free]))
            gains.append(_accumulate(delta, self._first[at]))
        self._fast_queries.value += fast
        self._slow_queries.value += slow
        return gains

    def kept(self, queries: Queries) -> Tuple["np.ndarray", "np.ndarray"]:
        """Eq. 2's kept sets: ``(candidates, kept mask)``, one row per
        queried slot in order.  A row's candidates are the layout slots of
        its accepted ingresses plus the queried one, ascending — for one
        UG, ascending peering id — padded with the layout's length.

        One pass of array operations over the batch: the table's candidate
        rule, outcome memory included."""
        at = np.concatenate([at for _, at in queries])
        rows = self._layout[0][at]
        acc = self.kpos[rows]
        n_acc = (acc < len(self.learned)).sum(axis=1)
        cand = np.sort(
            np.concatenate([acc[:, : n_acc.max(initial=0)], at[:, None]], axis=1), axis=1
        )
        table = self._table
        pids = self._pid[cand]
        slots = self._slot_of[rows]
        bits = self._bits[slots]
        mine = self._pid[at]
        bits[np.arange(len(at)), table.pid_word[mine]] |= table.pid_bit[mine]
        dist = self._layout[2].take(cand, mode="clip")  # the pad's is masked
        return cand, table.kept(slots, pids, bits, dist, self.d_reuse)

    def expected(self, queries: Queries) -> "np.ndarray":
        """Eq.-2 expected latency (``+inf``: nothing measurable), one per
        queried slot in order: the kept set's masked mean, summed in
        ascending peering id."""
        at = np.concatenate([at for _, at in queries])
        if not (self.kpos[self._layout[0][at], 0] < len(self.learned)).any():
            # Singletons: (0.0 + latency) / 1 is the latency itself.
            lat = self._layout[1][at]
            return np.where(np.isnan(lat), np.inf, lat)
        cand, kept = self.kept(queries)
        lat = self._layout[1].take(cand, mode="clip")
        return masked_mean(lat, kept & ~np.isnan(lat))

    def _learned(self, queries: Queries) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(marginal terms, expected latencies)`` of the queried learned
        slots: each term is the row's volume times how much its best
        latency improves."""
        rows = self._layout[0][np.concatenate([at for _, at in queries])]
        value = self.expected(queries)
        base = self._base[rows]
        old_best = np.minimum(base, self._exp[rows, self._prefix])
        new_best = np.where(
            value == np.inf, old_best, np.where(value < base, value, base)
        )
        return self.vol[rows] * (old_best - new_best), value

    def _kept_at(self, rows, limit) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(latency sum, count)`` of ``rows``' accepted ingresses within
        ``limit`` km (one limit per row)."""
        k = (self.kd[rows] <= limit[:, None]).sum(axis=1)
        return self.ks[rows, k], self.kc[rows, k]

    def _scan(
        self, rows: "np.ndarray", lat: "np.ndarray", dist: "np.ndarray", bounds: List[int]
    ) -> Tuple["np.ndarray", List[int]]:
        """Refresh contributions of unlearned slots, given by their rows,
        latencies and distances (pieces ``[bounds[i], bounds[i + 1])`` end
        to end), and each piece's scan queries.

        One :func:`refresh_contrib` pass with the cached ``d0``/``csum``/
        ``ccnt`` of their rows.  A row whose closest accepted ingress is
        farther than its peering would have its window shrunk to ``dist +
        d_reuse``: for those rows the kept set is re-read from ``kd``/
        ``ks``/``kc`` at the shrunken limit and ``d0`` replaced by ``dist``,
        which is exactly the state the formulas expect — so every row,
        shrinking or not, is one element of the same call, and a later
        volume patch can reproduce a piece's sum bit for bit by
        substituting elements.  A piece's scan queries are its rows plus
        its shrink-row reads.  The rows' state comes in one gather.
        """
        d0, csum, ccnt, ob, base, vol = self._state.take(rows, axis=1)
        shrinking = np.nonzero((dist < d0) & np.isfinite(d0))[0]
        if len(shrinking):
            closer = dist[shrinking]
            d0[shrinking] = closer
            csum[shrinking], ccnt[shrinking] = self._kept_at(
                rows[shrinking], closer + self.d_reuse
            )
        contrib = refresh_contrib(dist, lat, vol, d0, csum, ccnt, ob, base, self.d_reuse)
        marks = bounds
        if len(shrinking):
            cut = np.searchsorted(shrinking, bounds).tolist()
            marks = [bound + k for bound, k in zip(bounds, cut)]
        return contrib, [marks[i + 1] - marks[i] for i in range(len(bounds) - 1)]

    def contrib(self, pids: Sequence[int]) -> List[_Ahead]:
        """Per peering of ``pids``: what adding it to the accepted set gains
        on each slot of its span, the scan queries of its unlearned slots
        and the expected latencies of its learned ones (``None``: none).

        The peerings' spans are gathered end to end (their rows in one
        concatenation of layout views, latencies and distances in one
        more; with learned slots, the unlearned ones' in one ``take``
        each); the unlearned slots go through one :meth:`_scan`, the
        learned ones through one :meth:`_learned` batch, and each
        peering's vector is a view of the one result.
        """
        spans = [self._spans[pid] for pid in pids]
        bounds = [0, *accumulate(hi - lo for lo, hi in spans)]
        values = [None] * len(pids)
        if self._table is None:
            rows = np.concatenate([self._layout[0][lo:hi] for lo, hi in spans])
            lat, dist = np.concatenate([self._slots[:, lo:hi] for lo, hi in spans], axis=1)
            contrib, queries = self._scan(rows, lat, dist, bounds)
        else:
            at = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
            learned = self.learned[at]
            # Learned slots before each piece boundary.
            before = np.concatenate([[0], np.cumsum(learned)])[bounds]
            contrib = np.empty(len(at))
            free = ~learned
            queries = [0] * len(pids)
            if free.any():
                at = at[free]
                lat, dist = self._slots[:, at]
                contrib[free], queries = self._scan(
                    self._layout[0][at], lat, dist, (bounds - before).tolist()
                )
            if learned.any():
                terms, value = self._learned(
                    [(pid, self._learned_at[pid]) for pid in pids if pid in self._held]
                )
                contrib[learned] = terms
                values = [
                    piece if pid in self._held else None
                    for pid, piece in zip(pids, np.split(value, before[1:-1]))
                ]
        return [
            (contrib[bounds[i] : bounds[i + 1]], queries[i], values[i])
            for i in range(len(pids))
        ]

    def _reduce(self, pid: int, contrib: "np.ndarray") -> float:
        """The marginal of a vector: ``contrib.sum()`` over the unlearned
        slots, then the learned terms one at a time in row order."""
        held = self._held.get(pid)
        if held is None:
            return float(contrib.sum())
        return _accumulate(float(contrib[~held].sum()), contrib[held])

    def marginal(
        self, pid: int, stale: Callable[[], Sequence[int]] = tuple
    ) -> Tuple[float, MarginalDetail]:
        """A fresh marginal plus its summation detail.

        The detail lets a later warm solve re-run this exact summation with
        a few elements substituted (:meth:`patch`).  Unless ``pid`` was
        computed ahead, ``stale()`` is asked for the stale peerings, up to
        :data:`SPECULATIVE_REFRESHES` of which are computed in the same
        pass and kept for their own refreshes, which usually follow before
        the next accept; the scan counters count a marginal when it is
        served.
        """
        ahead = self._ahead.get(pid)
        if ahead is None:
            self._compute_ahead(pid, stale())
            ahead = self._ahead[pid]
        piece, queries, value = ahead
        self._fast_queries.value += queries
        # A copy, so a warm memo keeping the detail does not pin the
        # batch's buffer.
        contrib = piece.copy()
        if value is None:
            return float(contrib.sum()), contrib
        self._slow_queries.value += len(value)
        return self._reduce(pid, contrib), contrib

    def _compute_ahead(self, pid: int, stale: Sequence[int]) -> None:
        """Compute ``pid`` and up to :data:`SPECULATIVE_REFRESHES` of the
        ``stale`` peerings not computed yet, in one batch."""
        ahead = self._ahead
        batch = [pid] + [other for other in stale if other not in ahead][
            :SPECULATIVE_REFRESHES
        ]
        ahead.update(zip(batch, self.contrib(batch)))

    def refresh(self, pid: int, stale: Callable[[], Sequence[int]]) -> float:
        return self.marginal(pid, stale)[0]

    def patch_sites(self, pid: int, changed_rows: Set[int]) -> PatchSites:
        """Where a volume patch of ``pid`` writes when ``changed_rows`` (rows
        of its span) shifted: one search over the span, valid for the
        whole solve."""
        changed = np.array(sorted(changed_rows), dtype=np.intp)
        pos = np.searchsorted(self.arrays[pid][0], changed)
        learned = self._slot_of[changed] >= 0
        free = ~learned
        return (
            changed[free].tolist(),
            pos[free].tolist(),
            self._spans[pid][0] + pos[learned],
        )

    def patch(
        self, pid: int, recorded: MarginalDetail, sites: PatchSites
    ) -> Tuple[float, MarginalDetail]:
        """Volume-patch a recorded marginal: bit-equal, far cheaper.

        Valid while the scan state matches the one ``recorded`` was computed
        against (the caller replays the same accept sequence under the same
        learned set): only the terms at ``sites`` (:meth:`patch_sites`) are
        recomputed, then the identical float summation is replayed.
        """
        patched = self._patch_contrib(pid, recorded, sites)
        at = sites[2]
        if len(at):
            self._slow_queries.value += len(at)
            patched[at - self._spans[pid][0]] = self._learned([(pid, at)])[0]
        return self._reduce(pid, patched), patched

    def _patch_contrib(
        self, pid: int, recorded: "np.ndarray", sites: PatchSites
    ) -> "np.ndarray":
        """A recorded vector with the terms of the unlearned rows of
        ``sites`` recomputed.

        A volume shift changes marginal *weights* only — none of the scan
        state depends on volumes — so the shifted rows' terms are
        recomputed with IEEE-double scalar clones of the vectorized ops in
        :meth:`_scan` and substituted into a copy of the vector recorded
        for the same accept sequence.  (Scalar on purpose: a patch touches
        a handful of rows, where array set-up costs more than it saves.)
        """
        lo = self._spans[pid][0]
        patched = recorded.copy()
        d_reuse = self.d_reuse
        state, slots = self._state, self._slots
        for row, pos in zip(sites[0], sites[1]):
            d0_s, csum_s, ccnt_s, ob_s, base_s, vol_s = state[:, row].tolist()
            lat_s, dist_s = slots[:, lo + pos].tolist()
            if dist_s < d0_s and math.isfinite(d0_s):
                # The window shrinks: the kept set at the closer limit.
                k = int(np.searchsorted(self.kd[row], dist_s + d_reuse, side="right"))
                d0_s = dist_s
                csum_s = float(self.ks[row, k])
                ccnt_s = float(self.kc[row, k])
                self._fast_queries.value += 1
            limit_s = (dist_s if dist_s < d0_s else d0_s) + d_reuse
            add_s = dist_s <= limit_s and not math.isnan(lat_s)
            new_cnt = ccnt_s + (1.0 if add_s else 0.0)
            new_sum = csum_s + (lat_s if add_s else 0.0)
            new_p = new_sum / (new_cnt if new_cnt > 1.0 else 1.0)
            if new_cnt > 0:
                new_best = base_s if base_s < new_p else new_p
            else:
                new_best = ob_s
            patched[pos] = vol_s * (ob_s - new_best)
        return patched

    def accept(self, pid: int) -> None:
        """Fold an accepted peering into the scan state of its rows and
        write their new expected latencies into the prefix's column.

        One vectorized sorted insert over all of ``pid``'s rows: ``pid``
        lands after every accepted ingress at most as far
        (``bisect_right``), and each running sum behind it becomes *its
        predecessor* plus ``pid``'s latency (``+ 0.0`` when unmeasurable)
        — sums are built by insertion, never re-accumulated, so a row's
        doubles depend only on the order its ingresses were accepted in.
        ``+inf`` marks a row whose kept set has no measurable ingress.  A
        learned row's expected latency is its Eq.-2 value instead, the one
        its last refresh computed.
        """
        column = self._exp[:, self._prefix]
        rows, lat, dist = self.arrays[pid]
        held = self._held.get(pid)
        if held is not None:
            ahead = self._ahead.get(pid)
            if ahead is None:
                learned_value = self.expected([(pid, self._learned_at[pid])])
            else:
                learned_value = ahead[2]
        kd = self.kd[rows]
        if np.isfinite(kd[:, -1]).any():
            self._widen()
            kd = self.kd[rows]
        ks, kc = self.ks[rows], self.kc[rows]
        idx = (kd <= dist[:, None]).sum(axis=1)  # bisect_right
        behind = np.arange(1, ks.shape[1]) > idx[:, None]
        measurable = ~np.isnan(lat)
        lat0 = np.where(measurable, lat, 0.0)[:, None]
        ks[:, 1:] = np.where(behind, ks[:, :-1] + lat0, ks[:, 1:])
        kc[:, 1:] = np.where(behind, kc[:, :-1] + measurable[:, None], kc[:, 1:])
        kd[:, 1:] = np.where(behind[:, :-1], kd[:, :-1], kd[:, 1:])
        each = np.arange(len(rows))
        kd[each, idx] = dist
        self.kd[rows], self.ks[rows], self.kc[rows] = kd, ks, kc
        if self.kpos is not None:
            kpos = self.kpos[rows]
            kpos[:, 1:] = np.where(behind[:, :-1], kpos[:, :-1], kpos[:, 1:])
            kpos[each, idx] = np.arange(*self._spans[pid])
            self.kpos[rows] = kpos
        # The rows' new reuse windows, read back off the updated tables.
        d0 = kd[:, 0]
        k = (kd <= (d0 + self.d_reuse)[:, None]).sum(axis=1)
        csum, ccnt = ks[each, k], kc[each, k]
        value = np.full(len(rows), np.inf)
        np.divide(csum, ccnt, out=value, where=ccnt > 0)
        self.d0_arr[rows] = d0
        self.csum_arr[rows] = csum
        self.ccnt_arr[rows] = ccnt
        self.ob_arr[rows] = np.minimum(self._base[rows], value)
        column[rows] = value
        if held is not None:
            table = self._table
            column[rows[held]] = learned_value
            self._bits[self._slot_of[rows[held]], table.pid_word[pid]] |= table.pid_bit[pid]
        self._ahead = {}

    def _widen(self) -> None:
        """Double the kept-ingress tables' width, padding preserved."""
        n, width = self.kd.shape
        self.kd = np.concatenate([self.kd, np.full((n, width), np.inf)], axis=1)
        self.ks = np.concatenate(
            [self.ks, np.repeat(self.ks[:, -1:], width, axis=1)], axis=1
        )
        self.kc = np.concatenate(
            [self.kc, np.repeat(self.kc[:, -1:], width, axis=1)], axis=1
        )
        if self.kpos is not None:
            self.kpos = np.concatenate(
                [self.kpos, np.full((n, width), len(self.learned), dtype=np.intp)],
                axis=1,
            )

    def end_prefix(self) -> None:
        """Nothing to do: a round leaves no state behind."""
