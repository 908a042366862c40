"""The per-row work of a lazy-greedy solve, over a range of UG rows.

:class:`ShardState` owns a contiguous range of UG rows ``[lo, hi)`` and is
the only implementation of what Algorithm 1 does per row: filling its
rows of the latency/distance matrices, initial-heap gains, the vectorized refresh of a
marginal (shrink rows included), and folding accepted peerings into the
per-row scan state it keeps as arrays.  The serial solve runs one
``ShardState`` over every row in-process; the worker pool runs ``N`` of
them behind pipes.  Either way the parent-side reducer in
:mod:`repro.parallel.solver` turns their rows into marginals.

Serial ≡ sharded, per marginal, rests on three invariants enforced here:

* shards compute only **elementwise / per-row** quantities — every
  floating-point *reduction* (``contrib.sum()``, the initial ``vol @ gain``
  dot product, the learned-row terms) happens in the parent over full
  arrays assembled in canonical row order, so the summation order is the
  same for every shard count;
* shard row ranges are contiguous and affected-UG lists are row-ascending
  (``_invert_catalog`` walks UGs in scenario order), so concatenating
  shard results in shard order reproduces the one-shard array layout with
  no re-sorting — contribution vectors and accept replies alike;
* the per-value math is the *same code* for every shard count — the
  evaluator's one batch latency/distance fill, the compute backend's
  elementwise kernels (``repro.kernels``; workers inherit the evaluator's
  backend at fork time, so a compiled solve is compiled in every shard),
  and the array scan state, whose every update is **row-local**: a row's
  ``kd``/``ks``/``kc`` entries are a function of the accepts that touched
  that row and nothing else (not of the shard's range, nor of how often
  the table was widened), so a row evolves through the same IEEE doubles
  whichever shard holds it.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.telemetry import METRICS

#: Columns a round's kept-ingress table starts with; it doubles whenever a
#: row fills (few UGs ever see more accepted compliant ingresses per prefix).
INITIAL_SCAN_WIDTH = 4


def shard_ranges(n_rows: int, n_workers: int) -> List[Tuple[int, int]]:
    """Contiguous, near-even ``[lo, hi)`` row ranges, one per worker."""
    if n_workers < 1:
        raise ValueError("need at least one worker")
    base = n_rows // n_workers
    extra = n_rows % n_workers
    ranges = []
    lo = 0
    for i in range(n_workers):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


class ShardContext:
    """What every shard of one world shares (built once, immutable).

    Holds the scenario graph plus the dense UG-row × peering-column
    latency/distance matrices the static per-(UG, peering) arrays are
    gathered from: the evaluator's backend-bound pair in-process, the
    shared-memory pair for a worker pool.  Nothing in here is pickled —
    under the ``fork`` start method children inherit the parent's address
    space, and the :class:`SharedArray` segments map the same physical
    pages in every process.
    """

    def __init__(
        self,
        scenario,
        evaluator,
        model,
        affected: Dict[int, Sequence],
        ug_index: Dict[int, int],
        lat_mat,
        dist_mat,
        gain_buf,
    ) -> None:
        self.scenario = scenario
        self.evaluator = evaluator
        self.model = model
        #: The evaluator's compute backend: forked workers inherit it (a
        #: numba backend's compiled dispatchers survive ``fork``), so shard
        #: kernels run on exactly the backend the serial path would use.
        self.backend = evaluator.backend
        self.affected = affected
        self.ug_index = ug_index
        self.all_peering_ids: List[int] = sorted(affected)
        self.col_of: Dict[int, int] = evaluator.peering_columns
        self.n_ugs = len(scenario.user_groups)
        self.d_reuse = model.d_reuse_km
        self.lat_mat = lat_mat
        self.dist_mat = dist_mat
        self.gain_buf = gain_buf
        #: Global row indices of each peering's affected UGs, ascending
        #: (catalog inversion walks UGs in scenario order).
        self.rows_np: Dict[int, "np.ndarray"] = {
            pid: np.fromiter(
                (ug_index[ug.ug_id] for ug in ugs), dtype=np.intp, count=len(ugs)
            )
            for pid, ugs in affected.items()
        }
        self.total_pairs = sum(len(ugs) for ugs in affected.values())

    def arrays(self, pid: int, rows: "np.ndarray"):
        """``(latency, distance)`` of ``pid`` at ``rows``, an ascending
        subset of its affected rows; ``nan`` latency = unmeasurable."""
        col = self.col_of[pid]
        lat = self.lat_mat[rows, col]
        lat[np.isinf(lat)] = np.nan  # the matrices encode None as +inf
        return lat, self.dist_mat[rows, col]


class RowLayout(NamedTuple):
    """One solve's split of every peering's rows into unlearned / learned."""

    #: Unlearned affected rows per peering, ascending — the rows shards
    #: evaluate vectorized.
    rows: Dict[int, "np.ndarray"]
    #: Where each peering's unlearned rows start in the flat pair ordering
    #: (the gain buffer's layout).
    offset: Dict[int, int]
    #: The learned remainder of each peering's rows, ascending, which the
    #: parent evaluates against the routing model's compiled learned state
    #: (absent when none).
    learned: Dict[int, "np.ndarray"]
    #: Total unlearned pair count.
    total: int


def learned_layout(ctx: ShardContext, learned_ug_ids: Sequence[int]) -> RowLayout:
    """Filter the learned UGs' rows out of every peering's row list.

    UGs with learned state leave the vectorized scan; this is the one place
    that split is made, for shards and parent alike, so both sides index
    the same pair ordering.
    """
    ug_index = ctx.ug_index
    learned_rows = {
        ug_index[ug_id] for ug_id in learned_ug_ids if ug_id in ug_index
    }
    learned_sorted = np.fromiter(
        sorted(learned_rows), dtype=np.intp, count=len(learned_rows)
    )
    rows_of: Dict[int, "np.ndarray"] = {}
    offset: Dict[int, int] = {}
    learned: Dict[int, "np.ndarray"] = {}
    off = 0
    for pid in ctx.all_peering_ids:
        rows = ctx.rows_np[pid]
        if learned_rows:
            keep = ~np.isin(rows, learned_sorted)
            if not keep.all():
                learned[pid] = rows[~keep]
                rows = rows[keep]
        rows_of[pid] = rows
        offset[pid] = off
        off += len(rows)
    return RowLayout(rows_of, offset, learned, off)


class ShardState:
    """One shard's mutable solve state over its row range ``[lo, hi)``.

    The public methods are the worker protocol: ``fill``, ``prep``,
    ``round_start``, ``refresh``, ``accept``, ``invalidate``.  All of them
    run equally well in-process (the serial solve and the unit tests drive
    them directly) — the pool merely moves the calls behind a pipe.
    """

    def __init__(self, ctx: ShardContext, lo: int, hi: int) -> None:
        self.ctx = ctx
        self.lo = lo
        self.hi = hi
        self.ugs = ctx.scenario.user_groups
        self.vol_arr = np.array([ug.volume for ug in self.ugs])
        # Per-solve state (built by prep, kept while the learned set holds):
        self._prepped: Optional[frozenset] = None
        self.layout: Optional[RowLayout] = None
        self.local: Dict[int, Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]] = {}
        self.spans: Dict[int, Tuple[int, int]] = {}
        # Per-round state (built by begin_round).  The 1-D arrays are
        # indexed by world row like ``base_np``, which the parent sends
        # whole; the 2-D kept-ingress tables by ``row - lo``, so a worker
        # pays for its own row range only.
        self.base_np: Optional["np.ndarray"] = None
        self.d0_arr: Optional["np.ndarray"] = None
        self.csum_arr: Optional["np.ndarray"] = None
        self.ccnt_arr: Optional["np.ndarray"] = None
        self.ob_arr: Optional["np.ndarray"] = None
        self.kd: Optional["np.ndarray"] = None
        self.ks: Optional["np.ndarray"] = None
        self.kc: Optional["np.ndarray"] = None
        self._fast_queries = METRICS.counter("evaluator.scan_fast_queries")

    # -- one-time: matrix fill ----------------------------------------------

    def fill(self) -> int:
        """Fill the context's latency/distance matrices for rows ``[lo, hi)``.

        The pool workers' entry point into the evaluator's one batch fill
        (:meth:`repro.core.benefit.BenefitEvaluator.fill_latency_rows`), so
        every slot holds the exact double a serial materialisation writes.
        ``+inf`` encodes an unmeasurable ingress.  Returns the slot count.
        """
        ctx = self.ctx
        return ctx.evaluator.fill_latency_rows(ctx.lat_mat, ctx.dist_mat, self.lo, self.hi)

    # -- per-solve: learned split + gain-buffer layout -----------------------

    def prep(self, learned_ug_ids: Sequence[int]) -> int:
        """Build this solve's per-peering local arrays and buffer spans.

        ``learned_ug_ids`` is the authoritative learned set from the parent
        (a worker's forked routing model is frozen at pool-creation time
        and must not be consulted).  Learned rows are left to the parent;
        the rest of this shard's rows get their static arrays sliced out.
        A solve under the same learned set as the last one reuses them.
        """
        learned = frozenset(learned_ug_ids)
        if learned == self._prepped:
            return self.layout.total
        ctx = self.ctx
        layout = learned_layout(ctx, learned)
        lo, hi = self.lo, self.hi
        local = {}
        spans = {}
        for pid in ctx.all_peering_ids:
            rows = layout.rows[pid]
            left = int(np.searchsorted(rows, lo))
            right = int(np.searchsorted(rows, hi))
            sel = rows[left:right]
            lat, dist = ctx.arrays(pid, sel)
            local[pid] = (sel, lat, dist, self.vol_arr[sel])
            spans[pid] = (layout.offset[pid] + left, right - left)
        self.layout = layout
        self.local = local
        self.spans = spans
        self._prepped = learned
        return layout.total  # total (learned-filtered) pair count, all shards

    def set_volume(self, row: int, volume: float, peering_ids) -> None:
        """Patch one UG row's traffic volume into every cached image."""
        self.vol_arr[row] = volume
        for pid in peering_ids:
            arrays = self.local.get(pid)
            if arrays is not None:
                arrays[3][arrays[0] == row] = volume

    # -- per-prefix round ----------------------------------------------------

    def begin_round(self, base_np: "np.ndarray") -> None:
        """Reset the per-prefix scan state: nothing accepted yet.

        Per unlearned row, the accepted compliant ingresses are kept
        ascending by distance in ``kd`` (``+inf`` beyond the last one) with
        the running sums ``ks`` and counts ``kc`` of their measurable
        latencies, one column longer: ``ks[r, j]`` covers the row's ``j``
        closest, and past the last accepted ingress it repeats the row
        total, as a prefix sum over ``+inf`` padding would.  The kept set
        of a reuse window ``limit`` is therefore one count-and-gather —
        ``k = (kd[r] <= limit).sum()``, then ``ks[r, k]``, ``kc[r, k]`` —
        for any ``limit``.  The four 1-D arrays cache that read at the
        row's current window, so a refresh is a handful of array ops:
        ``d0`` closest accepted distance (inf while none kept), ``csum`` /
        ``ccnt`` sum and count of measurable kept-set latencies, ``ob`` the
        row's best latency today, ``min(base, current expected)``.
        """
        self.base_np = base_np
        n = self.ctx.n_ugs
        self.d0_arr = np.full(n, np.inf)
        self.csum_arr = np.zeros(n)
        self.ccnt_arr = np.zeros(n)
        self.ob_arr = base_np.copy()
        n_local = self.hi - self.lo
        self.kd = np.full((n_local, INITIAL_SCAN_WIDTH), np.inf)
        self.ks = np.zeros((n_local, INITIAL_SCAN_WIDTH + 1))
        self.kc = np.zeros((n_local, INITIAL_SCAN_WIDTH + 1))

    def initial_gains(self, pid: int) -> "np.ndarray":
        """Per-row ``max(0, base - latency)`` with nothing accepted yet.

        Elementwise on the backend; the ``vol @ gain`` dot product (a
        reduction) is the parent's.
        """
        sel, lat, _dist, _vol = self.local[pid]
        self._fast_queries.value += len(lat)
        return self.ctx.backend.initial_gains(self.base_np[sel], lat)

    def round_start(self, base_np: "np.ndarray") -> None:
        """``begin_round`` plus this shard's initial gains, for the pool.

        Gains land in the shared buffer at each peering's span, giving the
        parent the full ``fmax(base - lat, 0)`` vector per peering once
        every worker has acknowledged.
        """
        self.begin_round(base_np)
        gains = self.ctx.gain_buf
        for pid in self.ctx.all_peering_ids:
            start, count = self.spans[pid]
            if count:
                gains[start : start + count] = self.initial_gains(pid)

    def _kept_at(self, loc, limit) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(latency sum, count)`` of local rows ``loc``'s accepted
        ingresses within ``limit`` km (one limit per row)."""
        k = (self.kd[loc] <= limit[:, None]).sum(axis=1)
        return self.ks[loc, k], self.kc[loc, k]

    def contrib(self, pid: int) -> "np.ndarray":
        """This shard's slice of one marginal's per-row contributions.

        The fused elementwise pipeline (reuse-window test, kept-set mean
        update, best-latency improvement) runs on the compute backend over
        the cached ``d0``/``csum``/``ccnt`` of ``pid``'s rows.  A row whose
        closest accepted ingress is farther than ``pid`` would have its
        window shrunk to ``dist + d_reuse``: for those rows the kept set is
        re-read from ``kd``/``ks``/``kc`` at the shrunken limit and ``d0``
        replaced by ``dist``, which is exactly the state the kernel's
        formulas expect — so every row, shrinking or not, is one element of
        the same kernel call, the parent reduces the whole unlearned part
        in one numpy sum whatever the shard count, and a later volume patch
        can reproduce that sum bit-for-bit by substituting elements.
        """
        sel, lat, dist, vol = self.local[pid]
        d_reuse = self.ctx.d_reuse
        d0 = self.d0_arr[sel]
        csum = self.csum_arr[sel]
        ccnt = self.ccnt_arr[sel]
        shrinking = np.nonzero((dist < d0) & np.isfinite(d0))[0]
        if len(shrinking):
            closer = dist[shrinking]
            d0[shrinking] = closer
            csum[shrinking], ccnt[shrinking] = self._kept_at(
                sel[shrinking] - self.lo, closer + d_reuse
            )
        self._fast_queries.value += len(lat) + len(shrinking)
        contrib, _shrink = self.ctx.backend.refresh_contrib(
            dist, lat, vol, d0, csum, ccnt, self.ob_arr[sel], self.base_np[sel],
            d_reuse,
        )
        return contrib

    def refresh(self, pids: Sequence[int]) -> List["np.ndarray"]:
        """``contrib`` for a batch of peerings (one pool round trip)."""
        return [self.contrib(pid) for pid in pids]

    def patch_contrib(
        self, pid: int, recorded: "np.ndarray", changed_rows: Set[int]
    ) -> "np.ndarray":
        """A recorded ``contrib`` vector with ``changed_rows`` recomputed.

        For the warm-start volume patch: a volume shift changes marginal
        *weights* only — none of the scan state depends on volumes — so the
        shifted rows' terms are recomputed with IEEE-double scalar clones
        of the vectorized ops in ``contrib`` and substituted into a copy of
        the vector recorded for the same accept sequence.  (Scalar on
        purpose: a patch touches a handful of rows, where array set-up
        costs more than it saves.)
        """
        sel, lat, dist, vol = self.local[pid]
        patched = recorded.copy()
        d_reuse = self.ctx.d_reuse
        for row in changed_rows:
            # ``sel`` is ascending (see the module docstring).
            pos = int(np.searchsorted(sel, row))
            if pos >= len(sel) or sel[pos] != row:
                continue  # a learned row: the parent's term, not ours
            d0_s = float(self.d0_arr[row])
            dist_s = float(dist[pos])
            if dist_s < d0_s and math.isfinite(d0_s):
                # The window shrinks: the kept set at the closer limit.
                loc = row - self.lo
                k = int(np.searchsorted(self.kd[loc], dist_s + d_reuse, side="right"))
                d0_s = dist_s
                csum_s = float(self.ks[loc, k])
                ccnt_s = float(self.kc[loc, k])
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
            base_s = float(self.base_np[row])
            if new_cnt > 0:
                new_best = base_s if base_s < new_p else new_p
            else:
                new_best = ob_s
            patched[pos] = float(vol[pos]) * (ob_s - new_best)
        return patched

    def accept(self, pid: int) -> Tuple["np.ndarray", "np.ndarray"]:
        """Fold an accepted peering into this shard's scan state.

        One vectorized sorted insert over all of ``pid``'s unlearned rows:
        ``pid`` lands after every accepted ingress at most as far
        (``bisect_right``), and each running sum behind it becomes *its
        predecessor* plus ``pid``'s latency (``+ 0.0`` when unmeasurable)
        — sums are built by insertion, never re-accumulated, so a row's
        doubles depend only on the order its ingresses were accepted in.
        Returns ``(rows, expected latency)`` arrays for those rows, ``+inf``
        where the kept set has no measurable ingress; the parent writes
        them into its per-prefix latency column and handles learned rows
        itself.
        """
        sel, lat, dist, _vol = self.local[pid]
        loc = sel - self.lo
        if np.isfinite(self.kd[loc, -1]).any():
            self._widen()
        kd, ks, kc = self.kd[loc], self.ks[loc], self.kc[loc]
        idx = (kd <= dist[:, None]).sum(axis=1)  # bisect_right
        behind = np.arange(1, ks.shape[1]) > idx[:, None]
        measurable = ~np.isnan(lat)
        lat0 = np.where(measurable, lat, 0.0)[:, None]
        ks[:, 1:] = np.where(behind, ks[:, :-1] + lat0, ks[:, 1:])
        kc[:, 1:] = np.where(behind, kc[:, :-1] + measurable[:, None], kc[:, 1:])
        kd[:, 1:] = np.where(behind[:, :-1], kd[:, :-1], kd[:, 1:])
        kd[np.arange(len(sel)), idx] = dist
        self.kd[loc], self.ks[loc], self.kc[loc] = kd, ks, kc
        # The rows' new reuse windows, read back off the updated tables.
        d0 = kd[:, 0]
        csum, ccnt = self._kept_at(loc, d0 + self.ctx.d_reuse)
        value = np.full(len(sel), np.inf)
        np.divide(csum, ccnt, out=value, where=ccnt > 0)
        self.d0_arr[sel] = d0
        self.csum_arr[sel] = csum
        self.ccnt_arr[sel] = ccnt
        self.ob_arr[sel] = np.minimum(self.base_np[sel], value)
        return sel, value

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

    # -- epoch invalidation --------------------------------------------------

    def invalidate(self, ug_ids: Sequence[int]) -> int:
        """Drop per-solve state after the parent's model learned ``ug_ids``.

        The next ``prep`` rebuilds the learned split from the authoritative
        set the parent sends; dropping eagerly here makes it impossible for
        a stale layout to survive an ``observe()`` between solves.
        """
        self._prepped = None
        self.local = {}
        self.spans = {}
        return len(tuple(ug_ids))
