"""repro.telemetry units: tracer nesting, metrics kinds, journal round-trips."""

import json
import math

import pytest

from repro.cli import main
from repro.telemetry import (
    JOURNAL_VERSION,
    JournalError,
    METRICS,
    MetricsRegistry,
    NOOP_SPAN,
    RunJournal,
    Tracer,
    journal_to_result,
    load_journal,
    telemetry_session,
)


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
        assert loaded.header()["journal_version"] == JOURNAL_VERSION
        assert loaded.meta == {"preset": "tiny"}
        assert len(loaded.events()) == 2
        assert loaded.events("fault")[0]["fault_kind"] == "pop_outage"
        assert [r["seq"] for r in loaded.records] == [0, 1]
        assert loaded.dropped == 0
        assert loaded.to_jsonl() == path.read_text()

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
        with pytest.raises(JournalError, match="version"):
            load_journal(str(path))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text('{"kind":"span","seq":0}\n')
        with pytest.raises(JournalError, match="header"):
            load_journal(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
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


# A controller journal as written by an earlier build, torn mid-append.
PARENT_JOURNAL = (
    b'{"include_timings":false,"journal_version":1,"kind":"header",'
    b'"meta":{"prefix_budget":4,"scenario":"tiny"},"run_name":"controller"}\n'
    b'{"delta_groups":2,"event":"controller_start","kind":"event",'
    b'"prefix_budget":4,"scenario":"tiny","seq":0}\n'
    b'{"changed":true,"event":"controller_iteration","iteration":0,'
    b'"kind":"event","pairs":7,"prefixes":3,"realized_benefit":1.25,"seq":1}\n'
    b'{"event":"controller_checkpoint","i'
)


def _header(**changes) -> bytes:
    header = {
        "include_timings": False,
        "journal_version": JOURNAL_VERSION,
        "kind": "header",
        "meta": {},
        "run_name": "r",
    }
    header.update(changes)
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"


HEADER = _header()
GOOD = b'{"event":"a","kind":"event","seq":0}\n'
AFTER = b'{"event":"b","kind":"event","seq":1}\n'

# Header cases: the whole file is refused with a JournalError.
BAD_HEADERS = {
    "empty": b"",
    "not-json": b"{\n" + GOOD,
    "undecodable": b"\xff\xfe\n" + GOOD,
    "list": b"[1]\n" + GOOD,
    "not-header": GOOD + AFTER,
    "version-99": _header(journal_version=99) + GOOD,
    "version-true": _header(journal_version=True) + GOOD,
    "version-float": _header(journal_version=1.0) + GOOD,
    "meta-list": _header(meta=[1]) + GOOD,
    "run-name-int": _header(run_name=5) + GOOD,
    "timings-str": _header(include_timings="no") + GOOD,
}

# Body cases: the first bad line and everything after it are a torn tail.
TORN_LINES = {
    "list": b"[2]\n",
    "seq-bool": b'{"event":"x","kind":"event","seq":true}\n',
    "seq-str": b'{"event":"x","kind":"event","seq":"1"}\n',
    "seq-float": b'{"event":"x","kind":"event","seq":1.0}\n',
    "seq-missing": b'{"event":"x","kind":"event"}\n',
    "undecodable": b'\xff{"event":"x","kind":"event","seq":1}\n',
    "half-record": b'{"event":"x","ki\n',
    "scalar": b"7\n",
}


class TestJournalTails:
    """One reader, one tail rule: ``load_journal`` and ``RunJournal.resume``."""

    @pytest.mark.parametrize("case", sorted(BAD_HEADERS))
    def test_bad_header_is_refused_untouched(self, tmp_path, case, capsys):
        path = tmp_path / "j.jsonl"
        path.write_bytes(BAD_HEADERS[case])
        with pytest.raises(JournalError):
            load_journal(str(path))
        with pytest.raises(JournalError):
            RunJournal.resume(path, 10)
        assert path.read_bytes() == BAD_HEADERS[case]
        assert main(["trace", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(TORN_LINES))
    def test_bad_body_line_is_a_torn_tail(self, tmp_path, case):
        path = tmp_path / "j.jsonl"
        path.write_bytes(HEADER + GOOD + TORN_LINES[case] + AFTER)
        loaded = load_journal(str(path))
        assert [r["event"] for r in loaded.records] == ["a"]
        assert loaded.dropped == 2

        counter = METRICS.counter("controller.journal_tail_dropped")
        before = counter.value
        resumed = RunJournal.resume(path, 10)
        try:
            assert [r["event"] for r in resumed.records] == ["a"]
            assert counter.value - before == 2
            resumed.record_event("c")
        finally:
            resumed.close()
        tail = b'{"event":"c","kind":"event","seq":1}\n'
        assert path.read_bytes() == HEADER + GOOD + tail

    def test_upto_seq_drops_later_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(HEADER + GOOD + AFTER)
        resumed = RunJournal.resume(path, 0)
        resumed.close()
        assert resumed.dropped == 1
        assert path.read_bytes() == HEADER + GOOD

    def test_trace_renders_torn_journal(self, tmp_path, capsys):
        path = tmp_path / "j.jsonl"
        journal = RunJournal.create(path, run_name="torn")
        journal.record_event("alpha")
        journal.sync()
        journal.record_event("beta")
        journal.tear()
        journal._fh.close()
        journal._fh = None
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "event alpha: 1 recorded" in out
        assert "beta" not in out
        assert "dropped 1 torn trailing line(s)" in out

    def test_earlier_build_journal_loads_and_resumes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(PARENT_JOURNAL)
        loaded = load_journal(str(path))
        assert loaded.run_name == "controller"
        assert loaded.dropped == 1
        intact = PARENT_JOURNAL[: PARENT_JOURNAL.rindex(b"\n") + 1]
        assert loaded.to_jsonl().encode("ascii") == intact

        resumed = RunJournal.resume(path, 1)
        try:
            assert resumed.last_seq == 1
            resumed.record_event("controller_checkpoint", iteration=0)
        finally:
            resumed.close()
        assert path.read_bytes() == (
            intact + b'{"event":"controller_checkpoint","iteration":0,'
            b'"kind":"event","seq":2}\n'
        )
