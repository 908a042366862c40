"""Unit tests for the parallel building blocks: shards, shared memory, pool.

The differential suite (``test_parallel_solve.py``) proves end-to-end
bit-identity; this one exercises each layer in isolation — shard-range
arithmetic, the vectorized refresh expression against a scalar reference,
:class:`ShardState` driven fully in-process (no fork, so coverage sees the
lines), shared-memory round trips, and the pool's failure modes.
"""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.kernels.numpy_backend import refresh_contrib
from repro.scenario import tiny_scenario


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


@pytest.fixture()
def shard_world():
    """An orchestrator plus an in-process two-shard context over it."""
    scenario = tiny_scenario(seed=3)
    orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3))
    n_ugs = len(scenario.user_groups)
    n_cols = len(orchestrator.evaluator.peering_columns)
    lat = np.full((n_ugs, n_cols), np.nan)
    dist = np.full((n_ugs, n_cols), np.nan)
    total_pairs = sum(len(ugs) for ugs in orchestrator._affected.values())
    gains = np.zeros(total_pairs)
    ctx = ShardContext(
        scenario,
        orchestrator.evaluator,
        orchestrator.model,
        orchestrator._affected,
        orchestrator._ug_index,
        lat,
        dist,
        gains,
    )
    (lo0, hi0), (lo1, hi1) = shard_ranges(n_ugs, 2)
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
