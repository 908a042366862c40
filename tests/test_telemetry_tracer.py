"""repro.telemetry units: tracer nesting, metrics kinds, journal round-trips."""

import json
import math

import pytest

from repro.telemetry import (
    JOURNAL_VERSION,
    METRICS,
    MetricsRegistry,
    NOOP_SPAN,
    RunJournal,
    Tracer,
    journal_to_result,
    load_journal,
    telemetry_session,
)
from repro.telemetry.journal import LoadedJournal


class TestTracer:
    def test_disabled_returns_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("anything") is NOOP_SPAN
        assert tracer.span("else", tag=1) is NOOP_SPAN
        with tracer.span("noop") as span:
            span.tag("ignored", True)  # must not raise

    def test_spans_nest_with_parent_links(self):
        tracer = Tracer()
        finished = []
        tracer.enable(finished.append)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.depth == 1
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None
        # Completion order: inner closes first.
        assert [s.name for s in finished] == ["inner", "outer"]
        assert finished[0].parent_id == finished[1].span_id
        assert finished[1].parent_id is None

    def test_span_times_accumulate(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("timed") as span:
            sum(range(1000))
        assert span.wall_s >= 0.0
        assert span.cpu_s >= 0.0

    def test_tags_from_kwargs_and_tag_calls(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("tagged", preset="azure") as span:
            span.tag("result", 7)
        assert span.tags == {"preset": "azure", "result": 7}
        record = span.to_record()
        assert record["name"] == "tagged"
        assert record["tags"]["result"] == 7

    def test_disable_resets_ids(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a") as a:
            pass
        tracer.disable()
        tracer.enable()
        with tracer.span("b") as b:
            pass
        assert a.span_id == b.span_id == 1


class TestMetricsRegistry:
    def test_gauge_last_value_wins(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("live")
        gauge.set(10)
        gauge.set(3)
        assert reg.gauge("live").value == 3.0
        reg.reset()
        assert gauge.value == 0.0

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 5.0, 50.0, 500.0):
            hist.observe(v)
        assert hist.count == 5
        assert hist.counts == [1, 2, 1, 1]
        assert hist.min == 0.5
        assert hist.max == 500.0
        assert hist.mean == pytest.approx(112.1)
        assert hist.quantile(0.5) == 10.0

    def test_histogram_bounds_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            reg.histogram("bad", bounds=(2.0, 1.0))

    def test_snapshot_merge_round_trip(self):
        a = MetricsRegistry()
        a.counter("c").add(3)
        a.gauge("g").set(7)
        a.histogram("h", bounds=(1.0, 10.0)).observe(5.0)
        a.timer("t").add(0.5)
        b = MetricsRegistry()
        b.counter("c").add(1)
        b.histogram("h", bounds=(1.0, 10.0)).observe(50.0)
        b.merge(a.snapshot())
        assert b.counter("c").value == 4
        assert b.gauge("g").value == 7.0
        hist = b.histogram("h")
        assert hist.count == 2
        assert hist.counts == [0, 1, 1]
        assert b.timer("t").total_s == pytest.approx(0.5)

    def test_merge_tolerates_empty_histogram_snapshot(self):
        """A forked worker ships never-observed histograms (min/max None)."""
        a = MetricsRegistry()
        a.histogram("h", bounds=(1.0, 10.0))  # created but never observed
        b = MetricsRegistry()
        b.histogram("h", bounds=(1.0, 10.0)).observe(5.0)
        b.merge(a.snapshot())
        hist = b.histogram("h")
        assert hist.count == 1
        assert hist.min == 5.0
        assert hist.max == 5.0

    def test_prometheus_export_shape(self):
        reg = MetricsRegistry()
        reg.counter("orchestrator.solve_calls").add(2)
        reg.gauge("replay.live_flows").set(123.0)
        reg.cache("evaluator.memo").hits += 5
        reg.timer("tm.forward").add(0.25)
        hist = reg.histogram("tm.batch", bounds=(10.0, 100.0))
        hist.observe(5.0)
        hist.observe(50.0)
        hist.observe(5000.0)
        text = reg.to_prometheus()
        assert "orchestrator_solve_calls_total 2" in text
        assert "replay_live_flows 123" in text
        assert "evaluator_memo_hits_total 5" in text
        assert "tm_forward_calls_total 1" in text
        assert 'tm_batch_bucket{le="10"} 1' in text
        assert 'tm_batch_bucket{le="100"} 2' in text
        assert 'tm_batch_bucket{le="+Inf"} 3' in text
        assert "tm_batch_count 3" in text

    def test_render_includes_new_sections(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(2)
        reg.histogram("h").observe(3.0)
        text = reg.render()
        assert "-- gauges --" in text
        assert "-- histograms --" in text
        md = reg.to_markdown()
        assert "| gauge | value |" in md
        assert "| histogram |" in md


class TestRunJournal:
    def test_jsonl_round_trip(self, tmp_path):
        journal = RunJournal("unit", meta={"preset": "tiny"})
        journal.record_event("advertisement", iteration=0, prefixes=3)
        journal.record_event("fault", fault_kind="pop_outage")
        path = tmp_path / "run.jsonl"
        journal.write(str(path))
        loaded = load_journal(str(path))
        assert loaded.run_name == "unit"
        assert loaded.header["journal_version"] == JOURNAL_VERSION
        assert loaded.header["meta"] == {"preset": "tiny"}
        assert len(loaded.events()) == 2
        assert loaded.events("fault")[0]["fault_kind"] == "pop_outage"
        seqs = [r["seq"] for r in loaded.timeline()]
        assert seqs == sorted(seqs)

    def test_reserved_event_fields_rejected(self):
        journal = RunJournal("r")
        with pytest.raises(ValueError, match="reserved"):
            journal.record_event("fault", kind="pop_outage")

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "journal_version": JOURNAL_VERSION + 1})
            + "\n"
        )
        with pytest.raises(ValueError, match="version"):
            load_journal(str(path))

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            LoadedJournal({"kind": "span"}, [])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_journal(str(path))

    def test_timings_excluded_by_default(self):
        with telemetry_session("t") as journal:
            from repro.telemetry import TRACER

            with TRACER.span("x"):
                pass
        (span,) = journal.spans()
        assert "wall_s" not in span
        assert "cpu_s" not in span

    def test_timings_included_when_requested(self):
        with telemetry_session("t", include_timings=True) as journal:
            from repro.telemetry import TRACER

            with TRACER.span("x"):
                pass
        (span,) = journal.spans()
        assert span["wall_s"] >= 0.0
        assert span["cpu_s"] >= 0.0

    def test_session_restores_tracer_state(self):
        from repro.telemetry import TRACER

        assert not TRACER.enabled
        with telemetry_session("t"):
            assert TRACER.enabled
        assert not TRACER.enabled

    def test_to_result_renders_breakdown(self, tmp_path):
        from repro.telemetry import TRACER

        with telemetry_session("breakdown", include_timings=True) as journal:
            with TRACER.span("phase.a"):
                with TRACER.span("phase.b"):
                    pass
            journal.record_event("iteration_result", realized_benefit=12.5)
        path = tmp_path / "b.jsonl"
        journal.write(str(path))
        result = journal_to_result(load_journal(str(path)))
        text = result.render()
        assert "phase.a" in text
        assert "phase.b" in text
        assert "total wall (s)" in text
        assert "final realized benefit: 12.5000" in text

    def test_to_result_without_spans_notes_it(self, tmp_path):
        journal = RunJournal("quiet")
        path = tmp_path / "q.jsonl"
        journal.write(str(path))
        text = journal_to_result(load_journal(str(path))).render()
        assert "no spans" in text
