"""Unit tests for the metrics registry (``repro.telemetry``) and ``repro perf``.

The registry's contracts matter more than its arithmetic: hot code holds
direct references to stat objects, so ``reset()`` must zero in place, and
parallel experiment workers ship ``snapshot()`` dicts back to the parent,
so ``merge()`` must sum every stat kind.
"""

import json

import pytest

from repro.telemetry import METRICS, CacheStats, Counter, MetricsRegistry, TimerStats


class TestCounter:
    def test_add_and_reset(self):
        c = Counter("x")
        assert c.value == 0
        c.add()
        c.add(41)
        assert c.value == 42
        c.reset()
        assert c.value == 0


class TestCacheStats:
    def test_hit_rate(self):
        s = CacheStats("c")
        assert s.hit_rate == 0.0  # no lookups: defined as zero, not NaN
        s.hits += 3
        s.misses += 1
        assert s.lookups == 4
        assert s.hit_rate == pytest.approx(0.75)

    def test_reset(self):
        s = CacheStats("c")
        s.hits, s.misses, s.invalidations = 5, 2, 1
        s.reset()
        assert (s.hits, s.misses, s.invalidations) == (0, 0, 0)


class TestTimerStats:
    def test_mean(self):
        t = TimerStats("t")
        assert t.mean_s == 0.0
        t.add(1.0)
        t.add(3.0)
        assert t.calls == 2
        assert t.mean_s == pytest.approx(2.0)


class TestPerfRegistry:
    def test_acquisition_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.cache("b") is reg.cache("b")
        assert reg.timer("c") is reg.timer("c")

    def test_reset_zeroes_in_place(self):
        """Hot paths hold references across resets — identity must survive."""
        reg = MetricsRegistry()
        counter = reg.counter("evals")
        cache = reg.cache("memo")
        timer = reg.timer("solve")
        counter.add(10)
        cache.hits += 2
        timer.add(0.5)
        reg.reset()
        assert counter.value == 0
        assert cache.hits == 0
        assert timer.calls == 0
        assert reg.counter("evals") is counter  # same object, zeroed

    def test_timed_contextmanager(self):
        reg = MetricsRegistry()
        with reg.timed("region"):
            pass
        with reg.timed("region"):
            pass
        stat = reg.timer("region")
        assert stat.calls == 2
        assert stat.total_s >= 0.0

    def test_timed_records_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.timed("region"):
                raise RuntimeError("boom")
        assert reg.timer("region").calls == 1

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("a").add(3)
        reg.cache("b").hits += 1
        reg.timer("c").add(0.25)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"]["a"] == 3
        assert snap["caches"]["b"]["hits"] == 1
        assert snap["timers"]["c"]["calls"] == 1

    def test_merge_sums_worker_snapshot(self):
        """Parallel workers return snapshots; the parent folds them in."""
        worker = MetricsRegistry()
        worker.counter("evals").add(7)
        worker.cache("memo").hits += 4
        worker.cache("memo").misses += 1
        worker.timer("solve").add(1.5)

        parent = MetricsRegistry()
        parent.counter("evals").add(3)
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())

        assert parent.counter("evals").value == 3 + 7 + 7
        assert parent.cache("memo").hits == 8
        assert parent.cache("memo").misses == 2
        assert parent.timer("solve").calls == 2
        assert parent.timer("solve").total_s == pytest.approx(3.0)

    def test_merge_creates_worker_only_stats(self):
        """Metrics only a worker ever touched must appear after the merge.

        Regression guard for worker snapshots: a worker bumps
        counters/caches/timers/histograms the parent has never requested
        (e.g. the solver counters of an experiment worker), and the merge
        must materialize them rather than drop or mangle them.
        """
        worker = MetricsRegistry()
        worker.counter("worker.only_counter").add(2)
        worker.gauge("worker.only_gauge").set(7.5)
        worker.cache("worker.only_cache").hits += 3
        worker.cache("worker.only_cache").invalidations += 1
        worker.timer("worker.only_timer").add(0.5)
        worker.histogram("worker.only_hist", (1.0, 10.0)).observe(4.0)

        parent = MetricsRegistry()
        parent.merge(worker.snapshot())

        assert parent.counter("worker.only_counter").value == 2
        assert parent.gauge("worker.only_gauge").value == 7.5
        assert parent.cache("worker.only_cache").hits == 3
        assert parent.cache("worker.only_cache").invalidations == 1
        assert parent.timer("worker.only_timer").calls == 1
        hist = parent.histogram("worker.only_hist")
        assert hist.bounds == (1.0, 10.0)
        assert hist.count == 1
        assert hist.counts == [0, 1, 0]
        assert hist.min == 4.0
        assert hist.max == 4.0

    def test_merge_histograms_sum_counts_and_extremes(self):
        worker = MetricsRegistry()
        for value in (0.5, 3.0, 99.0):
            worker.histogram("h", (1.0, 10.0)).observe(value)
        parent = MetricsRegistry()
        parent.histogram("h", (1.0, 10.0)).observe(5.0)
        parent.merge(worker.snapshot())
        hist = parent.histogram("h")
        assert hist.count == 4
        assert hist.counts == [1, 2, 1]
        assert hist.min == 0.5
        assert hist.max == 99.0

    def test_merge_rejects_bounds_mismatch_atomically(self):
        """An incompatible snapshot must leave the registry untouched.

        The old merge raised on the histogram *after* counters, caches, and
        timers had already been folded in, so a rejected worker snapshot
        half-applied — every later report silently double-counted.  The
        merge now validates first and mutates only if everything fits.
        """
        worker = MetricsRegistry()
        worker.counter("evals").add(7)
        worker.timer("solve").add(1.0)
        worker.histogram("lat", (1.0, 2.0)).observe(1.5)

        parent = MetricsRegistry()
        parent.counter("evals").add(3)
        parent.histogram("lat", (5.0, 10.0)).observe(6.0)

        with pytest.raises(ValueError, match="different bounds"):
            parent.merge(worker.snapshot())

        # Nothing moved: not the counter, not the timer, not the histogram.
        assert parent.counter("evals").value == 3
        assert parent.timer("solve").calls == 0
        assert parent.histogram("lat").count == 1
        assert parent.histogram("lat").counts == [0, 1, 0]

    def test_merge_rejects_malformed_bucket_counts_atomically(self):
        worker = MetricsRegistry()
        worker.counter("evals").add(7)
        snapshot = worker.snapshot()
        snapshot["histograms"] = {
            "lat": {"bounds": [1.0, 2.0], "counts": [1, 2], "count": 3, "sum": 4.0}
        }
        parent = MetricsRegistry()
        with pytest.raises(ValueError, match="buckets"):
            parent.merge(snapshot)
        assert parent.counter("evals").value == 0
        assert "lat" not in parent.snapshot()["histograms"]

    def test_render_empty(self):
        reg = MetricsRegistry()
        assert "no activity" in reg.render()

    def test_render_and_markdown_show_live_stats(self):
        reg = MetricsRegistry()
        reg.counter("orchestrator.marginal_evals").add(12)
        reg.cache("evaluator.expected_latency").hits += 9
        reg.cache("evaluator.expected_latency").misses += 3
        reg.timer("orchestrator.solve").add(0.125)

        text = reg.render()
        assert "orchestrator.marginal_evals" in text
        assert "hit-rate 75.0%" in text
        assert "orchestrator.solve" in text

        md = reg.to_markdown()
        assert "| orchestrator.marginal_evals | 12 |" in md
        assert "75.0%" in md

    def test_module_singleton_exists(self):
        assert isinstance(METRICS, MetricsRegistry)


class TestPerfCli:
    def test_repro_perf_smoke_on_tiny_preset(self, capsys):
        """`repro perf` runs an instrumented solve and prints the report."""
        from repro.cli import main

        rc = main(
            ["perf", "--preset", "tiny", "--seed", "0", "--budget", "3",
             "--iterations", "0"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "performance counters" in out
        assert "orchestrator.marginal_evals" in out
        assert "laziness:" in out

    def test_repro_perf_learn_iterations(self, capsys):
        from repro.cli import main

        rc = main(
            ["perf", "--preset", "tiny", "--seed", "1", "--budget", "2",
             "--iterations", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "orchestrator.solve" in out
