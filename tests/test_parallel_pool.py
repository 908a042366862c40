"""Unit tests for the parallel building blocks: shards, shared memory, pool.

The differential suite (``test_parallel_solve.py``) proves end-to-end
bit-identity; this one exercises each layer in isolation — shard-range
arithmetic, the vectorized refresh expression against a scalar reference,
:class:`ShardState` driven fully in-process (no fork, so coverage sees the
lines) and differentially against the sorted-list scan its arrays replaced,
shared-memory round trips, and the pool's failure modes.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.parallel import (
    SharedArray,
    ShardContext,
    ShardState,
    WorkerPool,
    WorkerPoolError,
    arm_worker_faults,
    shard_ranges,
)
from repro.kernels.numpy_backend import NumpyBackend, refresh_contrib
from repro.parallel.shard import INITIAL_SCAN_WIDTH
from repro.scenario import prototype_scenario, tiny_scenario


class TestShardRanges:
    def test_partition_is_exact_and_contiguous(self):
        for n_rows in (0, 1, 7, 60, 100):
            for n_workers in (1, 2, 3, 4, 7):
                ranges = shard_ranges(n_rows, n_workers)
                assert len(ranges) == n_workers
                assert ranges[0][0] == 0
                assert ranges[-1][1] == n_rows
                for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                    assert hi == lo
                sizes = [hi - lo for lo, hi in ranges]
                assert max(sizes) - min(sizes) <= 1

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            shard_ranges(10, 0)


class TestRefreshContrib:
    """The vector expression agrees with a per-row scalar transcription."""

    def _scalar_reference(self, dist, lat, vol, d0, csum, ccnt, ob, base, d_reuse):
        n = len(dist)
        contrib = np.zeros(n)
        shrink = np.zeros(n, dtype=bool)
        for i in range(n):
            shrink[i] = dist[i] < d0[i] and np.isfinite(d0[i])
            limit = min(dist[i], d0[i]) + d_reuse
            add = dist[i] <= limit and not np.isnan(lat[i])
            cnt = ccnt[i] + add
            total = csum[i] + (lat[i] if add else 0.0)
            mean = total / max(cnt, 1)
            best = min(base[i], mean) if cnt > 0 else ob[i]
            contrib[i] = 0.0 if shrink[i] else vol[i] * (ob[i] - best)
        return contrib, shrink

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        n = 64
        dist = rng.uniform(0, 9000, n)
        lat = rng.uniform(5, 300, n)
        lat[rng.random(n) < 0.2] = np.nan  # unmeasurable
        vol = rng.uniform(0.1, 10, n)
        d0 = rng.uniform(0, 9000, n)
        d0[rng.random(n) < 0.3] = np.inf  # nothing kept yet
        csum = rng.uniform(0, 500, n)
        ccnt = rng.integers(0, 4, n).astype(float)
        ob = rng.uniform(5, 300, n)
        base = rng.uniform(5, 300, n)
        contrib, shrink = refresh_contrib(
            dist, lat, vol, d0, csum, ccnt, ob, base, 3000.0
        )
        ref_contrib, ref_shrink = self._scalar_reference(
            dist, lat, vol, d0, csum, ccnt, ob, base, 3000.0
        )
        assert np.array_equal(shrink, ref_shrink)
        assert np.array_equal(contrib, ref_contrib)


def _shard_context(orchestrator) -> ShardContext:
    """A pool-style context (private matrices) over ``orchestrator``."""
    scenario = orchestrator._scenario
    shape = (len(scenario.user_groups), len(orchestrator.evaluator.peering_columns))
    return ShardContext(
        scenario,
        orchestrator.evaluator,
        orchestrator.model,
        orchestrator._affected,
        orchestrator._ug_index,
        np.full(shape, np.nan),
        np.full(shape, np.nan),
        np.zeros(sum(len(ugs) for ugs in orchestrator._affected.values())),
    )


@pytest.fixture()
def shard_world():
    """An orchestrator plus an in-process two-shard context over it."""
    orchestrator = PainterOrchestrator(
        tiny_scenario(seed=3), OrchestratorConfig(prefix_budget=3)
    )
    ctx = _shard_context(orchestrator)
    (lo0, hi0), (lo1, hi1) = shard_ranges(ctx.n_ugs, 2)
    return orchestrator, ctx, ShardState(ctx, lo0, hi0), ShardState(ctx, lo1, hi1)


class TestShardStateInProcess:
    """Drive the worker protocol without forking (deterministic, covered)."""

    def test_fill_covers_every_catalog_pair_once(self, shard_world):
        orchestrator, ctx, shard_a, shard_b = shard_world
        filled = shard_a.fill() + shard_b.fill()
        assert filled == ctx.total_pairs
        # Every affected (UG, peering) slot got a value; untouched slots
        # stay NaN (the "uncomputed" encoding).
        for pid, rows in ctx.rows_np.items():
            col = ctx.col_of[pid]
            assert not np.isnan(ctx.lat_mat[rows, col]).any()
            assert not np.isnan(ctx.dist_mat[rows, col]).any()

    def test_fill_matches_serial_oracles(self, shard_world):
        orchestrator, ctx, shard_a, shard_b = shard_world
        shard_a.fill()
        shard_b.fill()
        evaluator = orchestrator.evaluator
        scenario = orchestrator._scenario
        for ug in scenario.user_groups[:10]:
            row = ctx.ug_index[ug.ug_id]
            for pid in scenario.catalog.ingress_ids(ug):
                col = ctx.col_of[pid]
                expected = evaluator.latency(ug, pid)
                got = ctx.lat_mat[row, col]
                if expected is None:
                    assert np.isinf(got)
                else:
                    assert got == expected
                assert ctx.dist_mat[row, col] == orchestrator.model.distance_km(
                    ug, pid
                )

    def test_prep_spans_tile_the_gain_buffer(self, shard_world):
        orchestrator, ctx, shard_a, shard_b = shard_world
        shard_a.fill()
        shard_b.fill()
        total = shard_a.prep(())
        assert shard_b.prep(()) == total
        assert total == ctx.total_pairs  # nothing learned: no rows filtered
        # Per peering, the two shards' spans are adjacent and sized to the
        # peering's row count.
        for pid, rows in ctx.rows_np.items():
            start_a, count_a = shard_a.spans[pid]
            start_b, count_b = shard_b.spans[pid]
            assert count_a + count_b == len(rows)
            assert start_a + count_a == start_b

    def test_prep_excludes_learned_rows(self, shard_world):
        orchestrator, ctx, shard_a, shard_b = shard_world
        shard_a.fill()
        shard_b.fill()
        learned = tuple(
            sorted(ug.ug_id for ug in orchestrator._scenario.user_groups[:5])
        )
        total = shard_a.prep(learned)
        shard_b.prep(learned)
        learned_rows = {ctx.ug_index[ug_id] for ug_id in learned}
        expected = sum(
            int(np.sum(~np.isin(rows, sorted(learned_rows))))
            for rows in ctx.rows_np.values()
        )
        assert total == expected
        for shard in (shard_a, shard_b):
            for pid, (sel, _lat, _dist, _vol) in shard.local.items():
                assert not (set(sel.tolist()) & learned_rows)

    def test_invalidate_drops_per_solve_state(self, shard_world):
        orchestrator, ctx, shard_a, _ = shard_world
        shard_a.fill()
        shard_a.prep(())
        assert shard_a.local
        assert shard_a.invalidate((1, 2, 3)) == 3
        assert not shard_a.local
        assert not shard_a.spans

    def test_round_start_writes_serial_gains(self, shard_world):
        orchestrator, ctx, shard_a, shard_b = shard_world
        shard_a.fill()
        shard_b.fill()
        shard_a.prep(())
        shard_b.prep(())
        scenario = orchestrator._scenario
        anycast = np.array(
            [scenario.anycast_latency_ms(ug) for ug in scenario.user_groups]
        )
        shard_a.round_start(anycast)
        shard_b.round_start(anycast)
        # The assembled buffer equals the serial fmax(base - lat, 0) per
        # peering, in span order.
        evaluator = orchestrator.evaluator
        for pid, rows in ctx.rows_np.items():
            start_a, count_a = shard_a.spans[pid]
            count = count_a + shard_b.spans[pid][1]
            got = ctx.gain_buf[start_a : start_a + count]
            lat = np.array(
                [
                    np.nan if evaluator.latency(ug, pid) is None
                    else evaluator.latency(ug, pid)
                    for ug in ctx.affected[pid]
                ]
            )
            expected = np.fmax(anycast[rows] - lat, 0.0)
            assert np.array_equal(got, expected)


class _ListScan:
    """The oracle: the per-UG sorted-list scan ``ShardState``'s arrays
    replaced (``PrefixScan``'s fast path at fb0f0fc, ported line for line;
    rows stand in for UGs, ``None`` latency = unmeasurable)."""

    def __init__(self, d_reuse):
        self.d_reuse = d_reuse
        self.states = {}

    def accept(self, row, dist, lat):
        state = self.states.get(row)
        if state is None:
            self.states[row] = [
                [dist],
                [0.0, lat if lat is not None else 0.0],
                [0, 1 if lat is not None else 0],
            ]
            return
        dists, sums, cnts = state
        idx = bisect_right(dists, dist)
        dists.insert(idx, dist)
        measurable = lat is not None
        sums.insert(idx + 1, sums[idx] + (lat if measurable else 0.0))
        cnts.insert(idx + 1, cnts[idx] + (1 if measurable else 0))
        if measurable:
            for j in range(idx + 2, len(sums)):
                sums[j] += lat
                cnts[j] += 1

    def kept_stats(self, row):
        """``(closest km, kept latency sum, kept count, expected)``."""
        if row not in self.states:
            return float("inf"), 0.0, 0, None
        dists, sums, cnts = self.states[row]
        idx = bisect_right(dists, dists[0] + self.d_reuse)
        total, count = sums[idx], cnts[idx]
        return dists[0], total, count, (total / count if count else None)

    def query(self, row, dist_p, lat_p):
        """Expected latency of the accepted set plus one more ingress."""
        state = self.states.get(row)
        if state is None:
            return lat_p
        dists, sums, cnts = state
        closest = dists[0]
        if dist_p < closest:
            closest = dist_p
        limit = closest + self.d_reuse
        idx = bisect_right(dists, limit)
        total, count = sums[idx], cnts[idx]
        if dist_p <= limit and lat_p is not None:
            total += lat_p
            count += 1
        return total / count if count else None

    def term(self, row, dist_p, lat_p, vol, base):
        """One row's marginal contribution, as the scalar solve computed it."""
        value = self.kept_stats(row)[3]
        old_best = base if value is None or base < value else value
        new_p = self.query(row, dist_p, lat_p)
        if new_p is None:
            return 0.0
        return vol * (old_best - (new_p if new_p < base else base))


def _hex(values):
    return [float(v).hex() for v in values]


#: Few distinct distances, so ties (insert-after) and equal-to-limit cases
#: are the norm rather than the exception.
_DISTANCES = st.sampled_from([40.0, 250.0, 250.0, 900.0, 1150.0, 4000.0])
_LATENCIES = st.one_of(st.none(), st.floats(min_value=1.0, max_value=300.0))


@st.composite
def _scan_worlds(draw):
    n_rows = draw(st.integers(min_value=2, max_value=6))
    # Row 0 complies with every peering and every peering gets accepted, so
    # one row outgrows the initial table width at least twice.
    n_pids = draw(st.integers(min_value=2 * INITIAL_SCAN_WIDTH + 1, max_value=14))
    cells = {}
    for row in range(n_rows):
        for pid in range(n_pids):
            # The last row complies with nothing: never touched.
            if row == 0 or (row < n_rows - 1 and draw(st.booleans())):
                cells[row, pid] = (draw(_DISTANCES), draw(_LATENCIES))
    reals = st.floats(min_value=5.0, max_value=300.0)
    lo = draw(st.integers(min_value=0, max_value=1))
    return SimpleNamespace(
        n_rows=n_rows,
        n_pids=n_pids,
        cells=cells,
        vol=[draw(st.floats(min_value=0.0, max_value=10.0)) for _ in range(n_rows)],
        base=np.array([draw(reals) for _ in range(n_rows)]),
        d_reuse=draw(st.sampled_from([0.0, 210.0, 3000.0])),
        accepts=draw(st.permutations(range(n_pids))),
        lo=lo,
        hi=draw(st.integers(min_value=lo + 1, max_value=n_rows)),
        learned=draw(st.sets(st.integers(min_value=1, max_value=n_rows - 1), max_size=1)),
    )


def _synthetic_context(world) -> ShardContext:
    """A :class:`ShardContext` over stub objects carrying ``world``'s cells
    in pool-style shared matrices (``+inf`` latency = unmeasurable)."""
    ugs = [
        SimpleNamespace(ug_id=100 + row, volume=world.vol[row])
        for row in range(world.n_rows)
    ]
    lat = np.full((world.n_rows, world.n_pids), np.nan)
    dist = np.full((world.n_rows, world.n_pids), np.nan)
    affected = {pid: [] for pid in range(world.n_pids)}
    for (row, pid), (dist_km, lat_ms) in sorted(world.cells.items()):
        affected[pid].append(ugs[row])
        dist[row, pid] = dist_km
        lat[row, pid] = np.inf if lat_ms is None else lat_ms
    return ShardContext(
        SimpleNamespace(user_groups=ugs),
        SimpleNamespace(
            backend=NumpyBackend(),
            peering_columns={pid: pid for pid in range(world.n_pids)},
        ),
        SimpleNamespace(d_reuse_km=world.d_reuse),
        affected,
        {ug.ug_id: row for row, ug in enumerate(ugs)},
        lat,
        dist,
        None,
    )


class TestArrayScanAgainstListScan:
    """``ShardState``'s array scan state vs the sorted lists it replaced."""

    @settings(max_examples=80)
    @given(world=_scan_worlds())
    def test_every_float_matches_the_list_scan(self, world):
        shard = ShardState(_synthetic_context(world), world.lo, world.hi)
        shard.prep([100 + row for row in world.learned])
        shard.begin_round(world.base)
        oracle = _ListScan(world.d_reuse)
        mine = [
            row for row in range(world.lo, world.hi) if row not in world.learned
        ]
        for accepted in world.accepts:
            rows, values = shard.accept(accepted)
            assert rows.tolist() == [
                row for row in mine if (row, accepted) in world.cells
            ]
            for row in rows.tolist():
                oracle.accept(row, *world.cells[row, accepted])
            stats = [oracle.kept_stats(row) for row in mine]
            expected = {row: s[3] for row, s in zip(mine, stats)}
            assert _hex(values) == _hex(
                float("inf") if expected[row] is None else expected[row]
                for row in rows.tolist()
            )
            assert _hex(shard.d0_arr[mine]) == _hex(s[0] for s in stats)
            assert _hex(shard.csum_arr[mine]) == _hex(s[1] for s in stats)
            assert _hex(shard.ccnt_arr[mine]) == _hex(s[2] for s in stats)
            assert _hex(shard.ob_arr[mine]) == _hex(
                base if s[3] is None or base < s[3] else s[3]
                for base, s in zip(world.base[mine], stats)
            )
            for pid in range(world.n_pids):
                sel = shard.local[pid][0].tolist()
                terms = [
                    oracle.term(
                        row, *world.cells[row, pid], world.vol[row],
                        float(world.base[row]),
                    )
                    for row in sel
                ]
                contrib = shard.contrib(pid)
                assert _hex(contrib) == _hex(terms)
                # A single-row patch recomputes exactly that element — of a
                # vector that is otherwise left alone.
                blank = np.full(len(sel), -1.0)
                for pos, row in enumerate(sel):
                    patched = shard.patch_contrib(pid, blank, {row})
                    assert patched[pos].hex() == terms[pos].hex()
                    assert np.count_nonzero(patched != blank) <= 1
                for row in world.learned:
                    assert np.array_equal(
                        shard.patch_contrib(pid, blank, {row}), blank
                    )
        # The tables themselves: the oracle's lists, then padding that
        # repeats the row total (whatever widening happened in between).
        for row in mine:
            dists, sums, cnts = oracle.states.get(row, ([], [0.0], [0]))
            n = len(dists)
            local = row - world.lo
            assert _hex(shard.kd[local, :n]) == _hex(dists)
            assert np.isinf(shard.kd[local, n:]).all()
            assert _hex(shard.ks[local, : n + 1]) == _hex(sums)
            assert _hex(shard.kc[local, : n + 1]) == _hex(cnts)
            assert (shard.ks[local, n:] == sums[-1]).all()
            assert (shard.kc[local, n:] == cnts[-1]).all()
        # Row 0 (when ours) took every accept: the table grew, twice.
        if world.lo == 0:
            assert shard.kd.shape[1] >= 4 * INITIAL_SCAN_WIDTH
            assert np.isfinite(shard.kd[0]).sum() == world.n_pids
        assert shard.kd.shape[0] == world.hi - world.lo


class TestShardCountInvariance:
    """Scan state is row-local: two shards hold what one shard holds."""

    def test_two_shards_concatenate_to_one(self):
        scenario = tiny_scenario(seed=0)
        orchestrator = PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3)
        )
        ctx = _shard_context(orchestrator)
        n_ugs = ctx.n_ugs
        whole = ShardState(ctx, 0, n_ugs)
        halves = [ShardState(ctx, lo, hi) for lo, hi in shard_ranges(n_ugs, 2)]
        whole.fill()
        base = np.array([scenario.anycast_latency_ms(ug) for ug in scenario.user_groups])
        for shard in [whole] + halves:
            shard.prep(())
            shard.begin_round(base)
        # Widest-footprint peerings first: rows fill up and the tables grow.
        accepts = sorted(ctx.rows_np, key=lambda pid: -len(ctx.rows_np[pid]))[:12]
        for pid in accepts:
            rows, values = whole.accept(pid)
            replies = [shard.accept(pid) for shard in halves]
            assert np.array_equal(np.concatenate([r[0] for r in replies]), rows)
            assert _hex(np.concatenate([r[1] for r in replies])) == _hex(values)
            for other in ctx.all_peering_ids:
                assert _hex(
                    np.concatenate([shard.contrib(other) for shard in halves])
                ) == _hex(whole.contrib(other))
        assert whole.kd.shape[1] > INITIAL_SCAN_WIDTH
        for name in ("kd", "ks", "kc"):
            table = getattr(whole, name)
            parts = [getattr(shard, name) for shard in halves]
            # Shards widen independently; past a row's last accepted
            # ingress the columns only repeat the padding, so equalizing
            # widths by repeating the last column loses nothing.
            stacked = np.concatenate(
                [
                    np.concatenate(
                        [part, np.repeat(part[:, -1:], table.shape[1] - part.shape[1], axis=1)],
                        axis=1,
                    )
                    for part in parts
                ]
            )
            assert stacked.shape == table.shape
            assert np.array_equal(stacked.view(np.uint64), table.view(np.uint64))

    def test_prototype_solve_outgrows_the_initial_width(self):
        golden = json.loads(
            (Path(__file__).parent / "data" / "golden_solve_configs.json").read_text()
        )["prototype_seed0"]
        orchestrator = PainterOrchestrator(
            prototype_scenario(seed=0),
            OrchestratorConfig(prefix_budget=golden["budget"]),
        )
        config = orchestrator.solve()
        pairs = sorted(
            [prefix, pid]
            for prefix in config.prefixes
            for pid in config.peerings_for(prefix)
        )
        assert pairs == golden["pairs"]
        assert orchestrator._shard.kd.shape[1] > INITIAL_SCAN_WIDTH


class TestSharedArray:
    def test_roundtrip_and_fill(self):
        arr = SharedArray((4, 3), fill=np.nan)
        try:
            assert np.isnan(arr.array).all()
            arr.array[2, 1] = 7.5
            # A second mapping of the same segment sees the write.
            from multiprocessing import shared_memory

            peer = shared_memory.SharedMemory(name=arr.name)
            try:
                view = np.ndarray((4, 3), dtype=np.float64, buffer=peer.buf)
                assert view[2, 1] == 7.5
                del view
            finally:
                peer.close()
        finally:
            arr.close(unlink=True)

    def test_close_is_idempotent(self):
        arr = SharedArray((2,), fill=0.0)
        arr.close(unlink=True)
        arr.close(unlink=True)
        assert arr.array is None

    def test_expected_teardown_races_stay_silent(self):
        from repro.telemetry import METRICS

        before = METRICS.counter("parallel.shm_teardown_errors").value
        arr = SharedArray((2,), fill=0.0)

        real_unlink = arr._shm.unlink

        def raise_missing():
            raise FileNotFoundError(arr.name)

        arr._shm.unlink = raise_missing
        arr.close(unlink=True)  # must not raise and must not count
        assert METRICS.counter("parallel.shm_teardown_errors").value == before
        real_unlink()  # actual cleanup so the segment doesn't leak

    def test_unexpected_teardown_error_is_counted(self):
        from repro.telemetry import METRICS

        before = METRICS.counter("parallel.shm_teardown_errors").value
        arr = SharedArray((2,), fill=0.0)
        real_close = arr._shm.close

        def boom():
            raise OSError("segment wedged")

        arr._shm.close = boom
        arr.close(unlink=True)  # swallowed, but visible in the metric
        assert METRICS.counter("parallel.shm_teardown_errors").value == before + 1
        real_close()  # actual cleanup so the segment doesn't leak the test


class _Echo:
    """A trivial pool handler for protocol tests."""

    def __init__(self, index: int) -> None:
        self.index = index

    def double(self, x):
        return (self.index, 2 * x)

    def boom(self):
        raise RuntimeError("kaboom")


class TestWorkerPool:
    def test_broadcast_gathers_in_worker_order(self):
        pool = WorkerPool(3, _Echo)
        try:
            assert pool.ping() == [0, 1, 2]
            assert pool.broadcast("double", 21) == [(0, 42), (1, 42), (2, 42)]
            assert pool.call(1, "double", 5) == (1, 10)
        finally:
            pool.close()

    def test_worker_exception_marks_pool_broken(self):
        pool = WorkerPool(2, _Echo)
        try:
            with pytest.raises(WorkerPoolError, match="kaboom"):
                pool.broadcast("boom")
            assert pool.broken
            with pytest.raises(WorkerPoolError):
                pool.broadcast("double", 1)
        finally:
            pool.close()

    def test_kill_worker_surfaces_as_pool_error(self):
        pool = WorkerPool(2, _Echo)
        try:
            assert pool.kill_worker(0)
            assert not pool.alive()
            with pytest.raises(WorkerPoolError):
                pool.broadcast("double", 1)
            assert not pool.kill_worker(0)  # already dead
        finally:
            pool.close()

    def test_timeout_raises(self):
        import time

        class _Sleeper:
            def __init__(self, index):
                pass

            def nap(self):
                time.sleep(5.0)

        pool = WorkerPool(1, _Sleeper, timeout_s=0.2)
        try:
            with pytest.raises(WorkerPoolError, match="timed out"):
                pool.broadcast("nap")
        finally:
            pool.close()

    def test_close_after_close_is_safe(self):
        pool = WorkerPool(1, _Echo)
        pool.close()
        pool.close()
        assert not pool.alive()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0, _Echo)

    def test_collect_metrics_resets_worker_registries(self):
        class _Counting:
            def __init__(self, index):
                pass

            def bump(self):
                from repro.telemetry.metrics import METRICS

                METRICS.counter("pool.test_bump").add()
                return True

        pool = WorkerPool(2, _Counting)
        try:
            pool.broadcast("bump")
            first = pool.collect_metrics()
            assert all(
                snap["counters"].get("pool.test_bump") == 1 for snap in first
            )
            second = pool.collect_metrics()
            # Snapshot-and-reset: a second collection must not re-report the
            # already-shipped increments (name may linger at zero).
            assert all(
                not snap["counters"].get("pool.test_bump") for snap in second
            )
        finally:
            pool.close()


class TestArmWorkerFaults:
    def test_worker_crash_event_kills_indexed_worker(self):
        from repro.faults import FaultInjector, FaultSchedule, WorkerCrash
        from repro.simulation.events import EventLoop

        pool = WorkerPool(2, _Echo)
        try:
            injector = FaultInjector(
                FaultSchedule(
                    events=(WorkerCrash(start_s=1.0, worker_index=3),)
                )
            )
            arm_worker_faults(injector, pool)
            loop = EventLoop()
            injector.arm(loop)
            loop.run_until(2.0)
            # worker_index wraps modulo pool size: 3 % 2 == 1.
            assert not pool._procs[1].is_alive()
            assert pool._procs[0].is_alive()
        finally:
            pool.close()

    def test_other_events_ignored(self):
        from repro.faults import FaultInjector, FaultSchedule, PopOutage
        from repro.simulation.events import EventLoop

        pool = WorkerPool(1, _Echo)
        try:
            injector = FaultInjector(
                FaultSchedule(
                    events=(
                        PopOutage(start_s=1.0, pop_name="pop-a", duration_s=2.0),
                    )
                )
            )
            arm_worker_faults(injector, pool)
            loop = EventLoop()
            injector.arm(loop)
            loop.run_until(5.0)
            assert pool.alive()
        finally:
            pool.close()


class TestWorkerCrashEvent:
    def test_describe_and_validation(self):
        from repro.faults import WorkerCrash

        event = WorkerCrash(start_s=5.0, worker_index=2)
        assert "worker 2" in event.describe()
        assert event.end_s == float("inf")  # death is permanent
        with pytest.raises(ValueError):
            WorkerCrash(start_s=0.0, worker_index=-1)
