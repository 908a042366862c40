"""Differential telemetry harness: determinism and non-interference gates.

Two properties make the journal trustworthy as a record of a run:

* **determinism** — the same seeded scenario journaled twice produces
  byte-identical JSONL (timings are excluded by default precisely so this
  holds);
* **non-interference** — running with telemetry enabled changes nothing
  about the solver's or the soak's (TM data plane's) outputs, and running with it
  disabled (the default) costs nothing and records nothing.
"""

import pytest

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.experiments.chaos import run_chaos
from repro.scenario import azure_scenario
from repro.soak import SoakConfig, run_soak
from repro.telemetry import TRACER, telemetry_session

BUDGET = 3
ITERATIONS = 2

#: A tiny soak that still selects, forwards, expires and fails flows over.
TINY_SOAK = SoakConfig(
    preset="tiny", seed=3, windows=4, window_s=600.0,
    arrivals_per_window=1_500, shifts_per_window=4,
)


@pytest.fixture(scope="module")
def azure_small():
    return azure_scenario(seed=0, n_ugs=60)


def _journaled_learn(scenario):
    with telemetry_session("determinism", meta={"preset": "azure", "seed": 0}) as j:
        orchestrator = PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=BUDGET)
        )
        result = orchestrator.learn(iterations=ITERATIONS)
    return result, j.to_jsonl()


class TestJournalDeterminism:
    def test_identical_seeds_identical_journals(self, azure_small):
        """The determinism gate: same seeded azure run → same bytes."""
        result_a, jsonl_a = _journaled_learn(azure_small)
        result_b, jsonl_b = _journaled_learn(azure_small)
        assert jsonl_a == jsonl_b
        assert result_a.realized_benefits == result_b.realized_benefits

    def test_journal_is_nonempty_and_versioned(self, azure_small):
        import json

        _result, jsonl = _journaled_learn(azure_small)
        lines = jsonl.strip().split("\n")
        header = json.loads(lines[0])
        assert header["journal_version"] == 1
        assert header["meta"]["preset"] == "azure"
        records = [json.loads(line) for line in lines[1:]]
        names = {r["name"] for r in records if r["kind"] == "span"}
        assert "orchestrator.solve" in names
        assert "orchestrator.prefix_scan" in names
        assert "orchestrator.execute_and_observe" in names
        events = {r["event"] for r in records if r["kind"] == "event"}
        assert {"advertisement", "measurement_round", "iteration_result"} <= events
        # Arrival order is the timeline: seq strictly increases.
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(len(records)))

    def test_chaos_journal_deterministic(self):
        """Fault storms (with injected faults and retries) journal stably."""

        def run():
            with telemetry_session("chaos") as j:
                run_chaos(storms=2, duration_s=60.0, seed=7, intensity=1.5)
            return j.to_jsonl()

        assert run() == run()

    def test_soak_journal_deterministic(self):
        def run():
            with telemetry_session("soak") as j:
                run_soak(TINY_SOAK)
            return j.to_jsonl()

        assert run() == run()


class TestTelemetryNonInterference:
    def test_tracer_disabled_by_default(self):
        assert not TRACER.enabled

    def test_solver_output_identical_with_and_without_telemetry(self, azure_small):
        """No-op-mode gate: telemetry must not perturb the solved configs."""
        orchestrator = PainterOrchestrator(
            azure_small, OrchestratorConfig(prefix_budget=BUDGET)
        )
        plain = orchestrator.learn(iterations=ITERATIONS)
        traced, _jsonl = _journaled_learn(azure_small)
        assert plain.realized_benefits == traced.realized_benefits
        for a, b in zip(plain.iterations, traced.iterations):
            assert a.config == b.config
            assert a.new_preferences == b.new_preferences

    def test_tm_outputs_identical_with_and_without_telemetry(self):
        plain = run_soak(TINY_SOAK)
        with telemetry_session("soak"):
            traced = run_soak(TINY_SOAK)
        assert plain.flows_moved > 0
        assert plain.ledger.fingerprint() == traced.ledger.fingerprint()
        assert (plain.flows_forwarded, plain.flows_moved, plain.remaps) == (
            traced.flows_forwarded, traced.flows_moved, traced.remaps,
        )

    def test_chaos_outcomes_identical_with_and_without_telemetry(self):
        plain = run_chaos(storms=1, duration_s=60.0, seed=3)
        with telemetry_session("chaos"):
            traced = run_chaos(storms=1, duration_s=60.0, seed=3)
        assert plain.rows == traced.rows


def _raises_leaving_no_open_span(run, span_name):
    """Run ``run`` with the tracer on; it must raise, close ``span_name``
    (so it reaches the sink) and leave nothing on the tracer stack."""
    finished = []
    TRACER.enable(finished.append)
    try:
        with pytest.raises(RuntimeError, match="injected"):
            run()
        assert TRACER.current is None
        with TRACER.span("after") as after:
            pass
        assert after.parent_id is None
    finally:
        TRACER.disable()
    assert span_name in [span.name for span in finished]


class TestSpanHygiene:
    def test_failed_soak_window_closes_its_span(self, monkeypatch):
        from repro.traffic_manager.dataplane import VectorFlowTable

        calls = []
        forward = VectorFlowTable.forward

        def failing_forward(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("injected data-plane failure")
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(VectorFlowTable, "forward", failing_forward)
        _raises_leaving_no_open_span(lambda: run_soak(TINY_SOAK), "soak.window")

    def test_failed_failover_closes_its_span(self, monkeypatch):
        from repro.traffic_manager import failover

        def failing_rtt(*args, **kwargs):
            raise RuntimeError("injected path-oracle failure")

        monkeypatch.setattr(failover._PathOracle, "rtt_ms", failing_rtt)
        _raises_leaving_no_open_span(
            lambda: failover.run_failover(failover.default_fig10_paths()),
            "failover.run",
        )
