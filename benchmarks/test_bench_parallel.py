"""Wall-clock gate for the sharded parallel solve (``repro.parallel``).

Runs the azure-preset solve serially and with a four-worker shard pool and
gates on a >= 2x speedup — with the non-negotiable precondition that the
two configurations are bit-identical (the parallel path is only allowed to
be *fast*, never *different*).  Timings, speedup, and the pool's IPC
counters land in ``benchmark.extra_info`` so the saved benchmark JSON
doubles as the experiment artifact CI uploads.

Skipped below four CPU cores: sharding can't beat serial on hardware that
time-slices the shards over one core.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import azure_scenario
from repro.telemetry import METRICS, telemetry_session

try:  # LP optimality envelope (needs scipy; see repro.optimality.gates)
    import scipy  # noqa: F401

    from repro.optimality import assert_lp_sound

    HAVE_LP_GATE = True
except ImportError:  # pragma: no cover - scipy installed in CI bench jobs
    HAVE_LP_GATE = False

WORKERS = 4

#: Minimum acceptable wall-clock ratio (serial / parallel) at 4 workers.
MIN_SPEEDUP = 2.0

GOLDEN_PATH = (
    Path(__file__).parent.parent / "tests" / "data" / "golden_solve_configs.json"
)


def _pairs(config):
    return sorted(
        [prefix, pid]
        for prefix in config.prefixes
        for pid in config.peerings_for(prefix)
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"parallel speedup gate needs >= {WORKERS} CPU cores",
)
def test_bench_parallel_solve_azure(benchmark):
    golden = json.loads(GOLDEN_PATH.read_text())["azure_seed0"]
    scenario = azure_scenario(seed=0)
    budget = golden["budget"]

    # Serial reference, timed outside the benchmark fixture: the gate is a
    # ratio of two runs in the same process on the same warm scenario.
    serial_orch = PainterOrchestrator(
        scenario, OrchestratorConfig(prefix_budget=budget)
    )
    start = time.perf_counter()
    serial_config = serial_orch.solve()
    serial_s = time.perf_counter() - start

    journals = []

    def run():
        METRICS.reset()
        orchestrator = PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=budget, workers=WORKERS)
        )
        try:
            # Telemetry live during the timed region, as in the serial
            # bench: the gate also bounds tracing overhead.
            with telemetry_session("bench-parallel", include_timings=True) as j:
                begin = time.perf_counter()
                config = orchestrator.solve()
                elapsed = time.perf_counter() - begin
        finally:
            orchestrator.close()
        journals.append(j)
        return config, elapsed

    config, parallel_s = benchmark.pedantic(run, rounds=1, iterations=1)

    # Correctness before speed: bit-identical to both golden and serial.
    pairs = _pairs(config)
    assert pairs == golden["pairs"]
    assert pairs == _pairs(serial_config)

    # The pool must actually have run (no silent serial fallback).
    assert METRICS.counter("parallel.solve_calls").value == 1
    assert METRICS.counter("parallel.fallbacks").value == 0

    speedup = serial_s / parallel_s
    assert speedup >= MIN_SPEEDUP, (
        f"parallel solve ({WORKERS} workers) took {parallel_s:.2f}s vs "
        f"{serial_s:.2f}s serial — {speedup:.2f}x, need >= {MIN_SPEEDUP}x"
    )

    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 3)
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["refresh_roundtrips"] = METRICS.counter(
        "parallel.refresh_roundtrips"
    ).value
    benchmark.extra_info["speculative_hits"] = METRICS.counter(
        "parallel.speculative_hits"
    ).value
    benchmark.extra_info["pairs"] = len(pairs)

    # Optimality envelope on the (bit-identical) parallel result: sharding
    # may only be fast, never push benefit past the LP relaxation.
    if HAVE_LP_GATE:
        envelope = assert_lp_sound(serial_orch.evaluator, config)
        benchmark.extra_info["benefit"] = round(envelope.benefit, 4)
        benchmark.extra_info["lp_bound"] = round(envelope.bound, 4)
        benchmark.extra_info["optimality_utilization"] = round(
            envelope.utilization, 4
        )
    else:
        benchmark.extra_info["lp_bound"] = "scipy unavailable"

    # Journal parity with the serial path: one prefix_scan span per prefix.
    journal = journals[-1]
    scans = [
        s for s in journal.spans() if s["name"] == "orchestrator.prefix_scan"
    ]
    assert len(scans) >= len(config.prefixes)
    benchmark.extra_info["journal_records"] = len(journal)
