"""The parent side of a row-sharded solve: two sources for the one driver.

:func:`repro.core.greedy.lazy_greedy` asks a ``MarginalSource`` for gains;
here the gains come from UG rows held by :class:`ShardState` shards.

:class:`RowSource` is the parent-side reducer, written once: it owns what
spans rows and prefixes — each UG's best latency from *other* prefixes, the
per-prefix expected latencies accepts leave behind, the Eq.-2 terms of
learned UGs (:class:`LearnedRows`, in arrays against the routing model's
compiled learned state) — and turns the shards' per-row vectors into
marginals with the only floating-point reductions of the solve (``vol @
gain``, ``contrib.sum()``, then the learned terms one at a time in row
order).  On its own it runs the serial solve: one shard over every row,
called in-process.

:class:`ShardedSource` is the same reducer with ``N`` shards behind the
pipes of a :class:`ParallelSolver`'s fork pool:

1. **fill** (once per pool): workers fill their row ranges of the shared
   UG×peering latency/distance matrices; the parent binds the latency
   matrix so its own evaluator reads the same doubles without recomputing.
2. **prep** (once per solve): the parent broadcasts the authoritative
   learned-UG set; both sides derive the identical learned-filtered pair
   layout (:func:`repro.parallel.shard.learned_layout`).
3. **round_start** (once per prefix): workers write initial gains into the
   shared buffer at their spans.
4. **refresh / accept** (inner loop): workers return their slices of the
   contribution vector and their rows' new expected latencies; the parent
   concatenates in worker order (== global row order).

Because shards only ever produce per-row values (shrink-row terms
included) and every reduction is the reducer's, a marginal is the same
float for every shard count — not just the configuration it decides.

Refreshes are batched speculatively: alongside the requested peering, up
to :data:`SPECULATIVE_REFRESHES` stale heap-top candidates ride the same
round trip (and the same pass over the learned rows).  Their values are
pure functions of the round state, so keeping them until the next accept
changes no value — it only saves pipe latency and per-pass array set-up
during re-push streaks.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.parallel.pool import DEFAULT_TIMEOUT_S, WorkerPool, WorkerPoolError
from repro.parallel.shard import (
    INITIAL_SCAN_WIDTH,
    ShardContext,
    ShardState,
    learned_layout,
    shard_ranges,
)
from repro.parallel.shared import SharedArray
from repro.telemetry import METRICS

logger = logging.getLogger(__name__)

#: Extra stale heap-top marginals refreshed per round trip (batched
#: speculation; identical values, fewer pipe crossings).
SPECULATIVE_REFRESHES = 3

#: A marginal's summation breakdown: the per-row contribution vector of the
#: unlearned rows and the ordered terms of the learned ones (the shared
#: empty tuple when the peering has none).
MarginalDetail = Tuple["np.ndarray", Union["np.ndarray", Tuple[()]]]


def _accumulate(total: float, terms: "np.ndarray") -> float:
    """``total`` plus every term, one at a time in order — never a pairwise
    ``ndarray.sum``, whose grouping a patched replay could not match."""
    for term in terms.tolist():
        total += term
    return total


#: One learned-row query batch: ``(pid, slots)`` pairs, each asking for the
#: accepted set plus ``pid`` at ``slots`` (ascending, each with ``pid``
#: compliant and not yet accepted).
Queries = Sequence[Tuple[int, "np.ndarray"]]


class LearnedRows:
    """Eq. 2 for the learned UG rows of one solve, in arrays.

    A learned UG's expected latency under an advertised set is a function
    of its compliant subset and its learned state, which the routing model
    compiles once per solve into a :class:`~repro.core.routing_model.
    DominanceTable` with one slot per learned row (``rows``, ascending).
    Per round this keeps each slot's accepted compliant peerings in a
    ``pad``-filled 2-D table (widened as needed, like ``ShardState``'s
    ``kd``), their peer-ASN bitset, and per outcome-memory entry how many
    of its peerings are accepted.  A batch of queries — the accepted set
    plus ``pid``, for learned rows ``pid`` serves — is then one pass of
    array operations: the table's candidate rule, the outcome override (an
    entry naming ``pid`` whose other members are exactly the accepted
    ones), and a masked mean summed in ascending peering id.
    """

    def __init__(self, ctx: ShardContext, learned: Dict[int, "np.ndarray"]) -> None:
        self.rows = np.unique(np.concatenate(list(learned.values())))
        #: Peering -> slots of its learned rows (ascending, like the rows).
        self.slots = {
            pid: np.searchsorted(self.rows, rows) for pid, rows in learned.items()
        }
        self._ugs = ctx.scenario.user_groups
        self._evaluator = ctx.evaluator
        self.table = table = ctx.model.dominance_table(
            [self._ugs[row].ug_id for row in self.rows.tolist()]
        )
        self._d_reuse = ctx.d_reuse
        self._lat = ctx.lat_mat
        self._dist = ctx.dist_mat
        #: Peering id -> matrix column (the pad reads column 0, masked).
        self._col = np.zeros(table.k, dtype=np.intp)
        for pid, col in ctx.col_of.items():
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


class RowSource:
    """Marginals reduced from shard rows; in-process over a single shard."""

    lookahead = 0

    def __init__(
        self,
        ctx: ShardContext,
        budget: int,
        peering_ids: Sequence[int],
        learned_ug_ids: Sequence[int],
        shard: Optional[ShardState] = None,
    ) -> None:
        self.peering_ids = peering_ids
        self._ctx = ctx
        self._shard = shard
        ugs = ctx.scenario.user_groups
        self._anycast = np.array(
            [ctx.scenario.anycast_latency_ms(ug) for ug in ugs]
        )
        self._vol = np.array([ug.volume for ug in ugs])
        #: Expected latency per (UG row, prefix); +inf where the prefix is
        #: unusable for the UG (None), so row minima need no masking.
        self._exp = np.full((len(ugs), budget), np.inf)
        self._slow_queries = METRICS.counter("evaluator.scan_slow_queries")
        learned = self._prep(learned_ug_ids)
        #: The learned rows, evaluated here against the compiled model.
        self._learned = LearnedRows(ctx, learned) if learned else None
        if learned:
            # A learned query costs a pass of array operations whatever its
            # size, so stale heap-top peerings ride along (see marginal).
            self.lookahead = SPECULATIVE_REFRESHES

    # -- where the rows are (overridden by ShardedSource) --------------------

    def _prep(self, learned_ug_ids: Sequence[int]) -> Dict[int, "np.ndarray"]:
        self._shard.prep(learned_ug_ids)
        return self._shard.layout.learned

    def _round_start(self, base_np: "np.ndarray") -> None:
        self._shard.begin_round(base_np)

    def _initial(self, pid: int) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(volumes, initial gains)`` of ``pid``'s unlearned rows."""
        return self._shard.local[pid][3], self._shard.initial_gains(pid)

    def _contrib(self, pid: int, stale: Sequence[int]) -> "np.ndarray":
        return self._shard.contrib(pid)

    def _accept(self, pid: int) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(rows, expected latencies)`` of ``pid``'s unlearned rows."""
        return self._shard.accept(pid)

    # -- the reducer ---------------------------------------------------------

    def begin_round(self, prefix: int) -> None:
        """Start ``prefix`` with nothing accepted."""
        self._prefix = prefix
        # Best latency each UG gets from anycast or *another* prefix.
        # Fixed for the whole inner loop: accepts only change the current
        # prefix's expected latencies, and its column is still all-inf.
        base_np = self._anycast
        if len(base_np):
            base_np = np.minimum(base_np, self._exp.min(axis=1))
        self._base = base_np
        #: ``pid -> (terms, expected latencies)`` of its learned rows,
        #: computed in a batch ahead of its refresh, or for its last one;
        #: valid until the next accept.
        self._known: Dict[int, Tuple["np.ndarray", "np.ndarray"]] = {}
        if self._learned is not None:
            self._learned.begin_round()
            # Nothing is accepted yet, so every learned query is a
            # singleton: one batch answers them all for the initial gains.
            slots = self._learned.slots
            self._known = dict(zip(slots, self._learned_terms(list(slots.items()))))
        self._round_start(base_np)

    def begin_prefix(self, prefix: int) -> List[float]:
        self.begin_round(prefix)
        return [self.initial(pid) for pid in self.peering_ids]

    def initial(self, pid: int) -> float:
        """Initial-heap gain: with nothing accepted yet, each unlearned row
        contributes ``vol * max(0, base - latency)`` — one dot product —
        and each learned row its singleton term, in row order (``+ 0.0``
        where the peering is no gain, which leaves the sum as it was)."""
        vol, gain = self._initial(pid)
        delta = float(vol @ gain)
        known = self._known.get(pid)
        if known is None:
            return delta
        self._slow_queries.value += len(known[0])
        return _accumulate(delta, known[0])

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
        terms = self._vol[rows] * (old_best - new_best)
        cut = np.cumsum([len(at) for _, at in queries[:-1]], dtype=np.intp)
        return list(zip(np.split(terms, cut), np.split(value, cut)))

    def marginal(
        self, pid: int, stale: Sequence[int] = ()
    ) -> Tuple[float, MarginalDetail]:
        """A fresh marginal plus its summation detail.

        Every backend and every shard count yields bit-identical elements
        (the kernels are reduction-free — see :mod:`repro.kernels`), so the
        one ``contrib.sum()`` here is the same float for all of them; the
        learned terms follow one at a time in row order.  The detail lets
        a later warm solve re-run this exact summation with a few elements
        substituted (:meth:`patch`).  The learned terms of the ``stale``
        peerings are computed in the same batch and kept for their own
        refreshes, which usually follow before the next accept.
        """
        contrib = self._contrib(pid, stale)
        delta = float(contrib.sum())
        learned = self._learned
        if learned is None or pid not in learned.slots:
            # The shared empty tuple, not a fresh array: a warm memo holds
            # one detail per marginal, and ``(ndarray, ())`` is a tuple the
            # cyclic GC stops tracking — thousands of long-lived objects
            # fewer per solve for every later full collection to walk.
            return delta, (contrib, ())
        known = self._known
        if pid not in known:
            batch = [pid] + [
                other for other in stale if other in learned.slots and other not in known
            ][:SPECULATIVE_REFRESHES]
            known.update(
                zip(batch, self._learned_terms([(p, learned.slots[p]) for p in batch]))
            )
        terms = known[pid][0]
        self._slow_queries.value += len(terms)
        # ``contrib`` is freshly allocated per call, so the detail can hold
        # it without a defensive copy.
        return _accumulate(delta, terms), (contrib, terms)

    def refresh(self, pid: int, stale: Sequence[int]) -> float:
        return self.marginal(pid, stale)[0]

    def patch(
        self, pid: int, recorded: MarginalDetail, changed_rows: Set[int]
    ) -> Optional[Tuple[float, MarginalDetail]]:
        """Volume-patch a recorded marginal: bit-equal, far cheaper.

        Valid while the scan state matches the one ``recorded`` was computed
        against (the caller replays the same accept sequence): only the
        ``changed_rows`` terms are recomputed, then the identical float
        summation is replayed.  In-process only.  Returns ``None`` when the
        recorded shape no longer fits the layout (caller re-evaluates).
        """
        contrib0, terms = recorded
        learned = self._learned
        slots = learned.slots.get(pid) if learned is not None else None
        n_rows = len(self._shard.local[pid][0])
        if len(contrib0) != n_rows or len(terms) != (0 if slots is None else len(slots)):
            return None  # learned split drifted under the record
        patched = self._shard.patch_contrib(pid, contrib0, changed_rows)
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

    def accept(self, pid: int) -> None:
        column = self._exp[:, self._prefix]
        rows, values = self._accept(pid)
        column[rows] = values
        learned = self._learned
        if learned is not None and pid in learned.slots:
            slots = learned.slots[pid]
            known = self._known.get(pid)
            value = known[1] if known is not None else learned.expected([(pid, slots)])
            column[learned.rows[slots]] = value
            learned.accept(pid)
        self._known = {}

    def end_prefix(self) -> None:
        if self._learned is not None:
            self._learned.remember(self._exp[:, self._prefix])


class ShardedSource(RowSource):
    """The reducer over a :class:`ParallelSolver`'s pool of shards."""

    lookahead = SPECULATIVE_REFRESHES

    def __init__(
        self,
        solver: "ParallelSolver",
        budget: int,
        peering_ids: Sequence[int],
        learned_ug_ids: Sequence[int],
    ) -> None:
        self._pool = solver.pool
        self._gain_buf = solver.ctx.gain_buf
        #: pid -> contribution vector, valid until the next accept.
        self._speculative: Dict[int, "np.ndarray"] = {}
        self._spec_hits = METRICS.counter("parallel.speculative_hits")
        self._roundtrips = METRICS.counter("parallel.refresh_roundtrips")
        super().__init__(solver.ctx, budget, peering_ids, learned_ug_ids)

    def _prep(self, learned_ug_ids: Sequence[int]) -> Dict[int, "np.ndarray"]:
        # The parent owns the live model; workers get the set explicitly
        # and derive the same layout from it.
        self._pool.broadcast("prep", learned_ug_ids)
        layout = learned_layout(self._ctx, learned_ug_ids)
        self._offset = layout.offset
        self._vol_of = {pid: self._vol[rows] for pid, rows in layout.rows.items()}
        return layout.learned

    def _round_start(self, base_np: "np.ndarray") -> None:
        self._speculative.clear()
        self._pool.broadcast("round_start", base_np)

    def _initial(self, pid: int) -> Tuple["np.ndarray", "np.ndarray"]:
        vol = self._vol_of[pid]
        start = self._offset[pid]
        return vol, self._gain_buf[start : start + len(vol)]

    def _contrib(self, pid: int, stale: Sequence[int]) -> "np.ndarray":
        speculative = self._speculative
        if pid in speculative:
            self._spec_hits.add()
            return speculative.pop(pid)
        extra = [other for other in stale if other not in speculative]
        batch = [pid] + extra[:SPECULATIVE_REFRESHES]
        self._roundtrips.add()
        replies = self._pool.broadcast("refresh", batch)
        for i, other in enumerate(batch):
            speculative[other] = np.concatenate([reply[i] for reply in replies])
        return speculative.pop(pid)

    def _accept(self, pid: int) -> Tuple["np.ndarray", "np.ndarray"]:
        self._speculative.clear()
        rows, values = zip(*self._pool.broadcast("accept", pid))
        return np.concatenate(rows), np.concatenate(values)


class ParallelSolver:
    """Owns one orchestrator's shared-memory matrices and shard pool."""

    def __init__(
        self,
        orchestrator,
        n_workers: int,
        *,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        if n_workers < 2:
            raise ValueError("parallel solve needs at least 2 workers")
        self._orch = orchestrator
        self.n_workers = n_workers
        scenario = orchestrator._scenario
        evaluator = orchestrator._evaluator
        n_ugs = len(scenario.user_groups)
        n_cols = len(evaluator.peering_columns)
        self._lat = SharedArray((n_ugs, n_cols), fill=np.nan)
        self._dist = SharedArray((n_ugs, n_cols), fill=np.nan)
        total_pairs = sum(len(ugs) for ugs in orchestrator._affected.values())
        self._gains = SharedArray((total_pairs,), fill=0.0)
        ctx = ShardContext(
            scenario,
            evaluator,
            orchestrator._model,
            orchestrator._affected,
            orchestrator._ug_index,
            self._lat.array,
            self._dist.array,
            self._gains.array,
        )
        self.ctx = ctx
        shards = shard_ranges(n_ugs, n_workers)

        def make_handler(index: int, _ctx=ctx, _shards=tuple(shards)) -> ShardState:
            lo, hi = _shards[index]
            return ShardState(_ctx, lo, hi)

        self.pool = WorkerPool(n_workers, make_handler, timeout_s=timeout_s)
        #: World-state generation this pool was forked from.  The
        #: orchestrator bumps its own epoch on volume/peering mutations and
        #: rebuilds any pool whose epoch lags — forked workers hold frozen
        #: copies of the scenario and must not serve a mutated world.
        self.world_epoch = orchestrator.world_epoch
        self._filled = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.pool.close()
        finally:
            backend = self._orch._evaluator.backend
            # A serial materialisation may have replaced the pool's binding.
            if self._filled and backend.latency_matrix is self._lat.array:
                backend.release_latency_matrix()
            # Release the shard context's views so the mappings can unmap.
            self.ctx.lat_mat = None
            self.ctx.dist_mat = None
            self.ctx.gain_buf = None
            for arr in (self._lat, self._dist, self._gains):
                arr.close(unlink=True)

    def invalidate(self, ug_ids) -> bool:
        """Broadcast an epoch bump after the parent's model learned.

        Returns ``False`` when the broadcast could not reach every worker
        (pool already broken, or it broke right here).  The caller must
        treat that as a pool failure — a worker that missed the epoch bump
        would solve against a stale learned set, so the next solve has to
        fall back instead of trusting (or waiting on) this pool.
        """
        if self.pool.broken:
            return False
        try:
            self.pool.broadcast("invalidate", tuple(ug_ids))
            return True
        except WorkerPoolError:
            self.pool.broken = True
            return False

    def _ensure_filled(self) -> None:
        if self._filled:
            return
        with METRICS.timed("parallel.fill"):
            self.pool.broadcast("fill")
        # The parent's evaluator now reads the worker-computed doubles
        # instead of re-deriving them serially (bound on the compute
        # backend, which owns the dense-matrix surface).
        self._orch._evaluator.backend.bind_latency_matrix(self._lat.array)
        self._filled = True

    # -- the solve -----------------------------------------------------------

    def solve(self, record_curve: bool = False):
        """One full Algorithm-1 budget allocation over the pool's shards
        (an ``AdvertisementConfig``; ``repro.core`` imports this module)."""
        METRICS.counter("parallel.solve_calls").add()
        self._ensure_filled()
        orch = self._orch
        source = ShardedSource(self, *orch._solve_inputs())
        config = orch._solve(source, record_curve)
        # Fold each worker's per-solve metrics (scan counters, fill timers)
        # into the parent registry; workers snapshot-and-reset so a
        # persistent pool never double-counts across solves.
        for snapshot in self.pool.collect_metrics():
            METRICS.merge(snapshot)
        return config
