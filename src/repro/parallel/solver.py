"""The parent side of a row-sharded solve: two sources for the one driver.

:func:`repro.core.greedy.lazy_greedy` asks a ``MarginalSource`` for gains;
here the gains come from UG rows held by :class:`ShardState` shards.

:class:`RowSource` is the parent-side reducer, written once: it owns what
spans rows and prefixes — each UG's best latency from *other* prefixes, the
per-prefix expected latencies accepts leave behind, the exact Eq.-2 terms
of learned UGs — and turns the shards' per-row vectors into marginals with
the only floating-point reductions of the solve (``vol @ gain``,
``contrib.sum()``, then the learned terms in row order).  On its own it
runs the serial solve: one shard over every row, called in-process.

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
round trip.  Their contribution vectors are pure functions of the round
state, so keeping them until the next accept changes no value — it only
saves pipe latency during re-push streaks.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.parallel.pool import DEFAULT_TIMEOUT_S, WorkerPool, WorkerPoolError
from repro.parallel.shard import (
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
#: unlearned rows and the ordered exact terms of the learned ones.
MarginalDetail = Tuple["np.ndarray", Sequence[float]]


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
        self._evaluator = ctx.evaluator
        ugs = ctx.scenario.user_groups
        self._anycast = np.array(
            [ctx.scenario.anycast_latency_ms(ug) for ug in ugs]
        )
        self._vol_list = [ug.volume for ug in ugs]
        #: Expected latency per (UG row, prefix); +inf where the prefix is
        #: unusable for the UG (None), so row minima need no masking.
        self._exp = np.full((len(ugs), budget), np.inf)
        #: Learned ``(UG, row)`` pairs per peering: evaluated here, exactly.
        self._learned = self._prep(learned_ug_ids)

    # -- where the rows are (overridden by ShardedSource) --------------------

    def _prep(self, learned_ug_ids: Sequence[int]) -> Dict[int, list]:
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
        self._base = base_np.tolist()
        #: Expected latency of the current prefix per learned UG row (None
        #: until a compliant peering is accepted).
        self._cur: Dict[int, Optional[float]] = {}
        #: Eq.-2 session for the learned rows (the exact, memoized path).
        self._scan = self._evaluator.begin_prefix_scan()
        self._round_start(base_np)

    def begin_prefix(self, prefix: int) -> List[float]:
        self.begin_round(prefix)
        return [self.initial(pid) for pid in self.peering_ids]

    def initial(self, pid: int) -> float:
        """Initial-heap gain: with nothing accepted yet, each unlearned row
        contributes ``vol * max(0, base - latency)`` — one dot product."""
        vol, gain = self._initial(pid)
        delta = float(vol @ gain)
        for ug, row in self._learned.get(pid, ()):
            base = self._base[row]
            new_p = self._scan.query(ug, pid)
            if new_p is not None and new_p < base:
                delta += self._vol_list[row] * (base - new_p)
        return delta

    def _learned_terms(
        self,
        pid: int,
        recorded: Optional[Sequence[float]] = None,
        changed: Set[int] = frozenset(),
    ) -> Sequence[float]:
        """Exact marginal terms of ``pid``'s learned rows, in row order.

        With ``recorded`` terms (a volume patch), only ``changed`` rows are
        re-evaluated.
        """
        learned = self._learned.get(pid)
        if not learned:
            # The shared empty tuple, not a fresh list: a warm memo holds
            # one detail per marginal, and ``(ndarray, ())`` is a tuple the
            # cyclic GC stops tracking — thousands of long-lived objects
            # fewer per solve for every later full collection to walk.
            return ()
        terms: List[float] = []
        base_list, cur_p, query = self._base, self._cur, self._scan.query
        for i, (ug, row) in enumerate(learned):
            if recorded is not None and row not in changed:
                terms.append(recorded[i])
                continue
            base = base_list[row]
            old_p = cur_p.get(row)
            old_best = base if old_p is None or base < old_p else old_p
            new_p = query(ug, pid)
            if new_p is None:
                new_best = old_best
            elif new_p < base:
                new_best = new_p
            else:
                new_best = base
            terms.append(self._vol_list[row] * (old_best - new_best))
        return terms

    def marginal(
        self, pid: int, stale: Sequence[int] = ()
    ) -> Tuple[float, MarginalDetail]:
        """A fresh marginal plus its summation detail.

        Every backend and every shard count yields bit-identical elements
        (the kernels are reduction-free — see :mod:`repro.kernels`), so the
        one ``contrib.sum()`` here is the same float for all of them.  The
        detail lets a later warm solve re-run this exact summation with a
        few elements substituted (:meth:`patch`).
        """
        contrib = self._contrib(pid, stale)
        delta = float(contrib.sum())
        terms = self._learned_terms(pid)
        for term in terms:
            delta += term
        # ``contrib`` is freshly allocated per call, so the detail can hold
        # it without a defensive copy.
        return delta, (contrib, terms)

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
        contrib0, terms0 = recorded
        n_rows = len(self._shard.local[pid][0])
        if len(contrib0) != n_rows or len(terms0) != len(self._learned.get(pid, ())):
            return None  # learned split drifted under the record
        patched = self._shard.patch_contrib(pid, contrib0, changed_rows)
        total = float(patched.sum())
        terms = self._learned_terms(pid, terms0, changed_rows)
        for term in terms:
            total += term
        return total, (patched, terms)

    def accept(self, pid: int) -> None:
        self._scan.accept(pid)
        column = self._exp[:, self._prefix]
        rows, values = self._accept(pid)
        column[rows] = values
        for ug, row in self._learned.get(pid, ()):
            value = self._cur[row] = self._scan.current(ug)
            column[row] = np.inf if value is None else value

    def end_prefix(self) -> None:
        pass


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

    def _prep(self, learned_ug_ids: Sequence[int]) -> Dict[int, list]:
        # The parent owns the live model; workers get the set explicitly
        # and derive the same layout from it.
        self._pool.broadcast("prep", learned_ug_ids)
        layout = learned_layout(self._ctx, learned_ug_ids)
        vol_arr = np.array(self._vol_list)
        self._offset = layout.offset
        self._vol = {pid: vol_arr[rows] for pid, rows in layout.rows.items()}
        return layout.learned

    def _round_start(self, base_np: "np.ndarray") -> None:
        self._speculative.clear()
        self._pool.broadcast("round_start", base_np)

    def _initial(self, pid: int) -> Tuple["np.ndarray", "np.ndarray"]:
        vol = self._vol[pid]
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
