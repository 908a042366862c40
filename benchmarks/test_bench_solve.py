"""Wall-clock benchmark of Algorithm 1 on the azure preset.

Pins the headline claim of the lazy-greedy fast path: ``solve()`` on
``azure_scenario(seed=0)`` must run at least 3x faster than the pre-fast-path
baseline while still producing the golden advertisement configuration, and
its perf counters must show the heap actually skipped the work a naive
greedy would have done.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import azure_scenario
from repro.telemetry import METRICS, telemetry_session

try:  # LP optimality envelope (needs scipy; see repro.optimality.gates)
    import scipy  # noqa: F401

    from repro.optimality import assert_lp_sound

    HAVE_LP_GATE = True
except ImportError:  # pragma: no cover - scipy installed in CI bench jobs
    HAVE_LP_GATE = False

#: Measured before the evaluation fast path landed (same machine class as
#: CI): dense per-pair scoring with no latency-matrix precompute, no
#: incremental prefix scans, and no vectorized marginals.
PRE_PR_BASELINE_S = 60.9

GOLDEN_PATH = Path(__file__).parent.parent / "tests" / "data" / "golden_solve_configs.json"


def test_bench_solve_azure(benchmark):
    golden = json.loads(GOLDEN_PATH.read_text())["azure_seed0"]
    scenario = azure_scenario(seed=0)

    journals = []
    orchestrators = []

    def run():
        METRICS.reset()
        orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=golden["budget"]))
        # Telemetry live during the timed region: the 3x gate therefore
        # also bounds tracing overhead on the solver's hot path.
        with telemetry_session("bench-solve", include_timings=True) as journal:
            start = time.perf_counter()
            config = orchestrator.solve()
            elapsed = time.perf_counter() - start
        journals.append(journal)
        orchestrators.append(orchestrator)
        return config, elapsed

    config, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)

    # Correctness first: the fast path must not change the solved config.
    pairs = sorted(
        [prefix, pid]
        for prefix in config.prefixes
        for pid in config.peerings_for(prefix)
    )
    assert pairs == golden["pairs"]

    # Speed: at least 3x over the pre-fast-path baseline.
    assert elapsed < PRE_PR_BASELINE_S / 3, (
        f"solve() took {elapsed:.1f}s; fast path should beat "
        f"{PRE_PR_BASELINE_S / 3:.1f}s"
    )

    # Laziness: the heap must have skipped most naive re-evaluations.
    lazy = METRICS.counter("orchestrator.marginal_evals").value
    naive = METRICS.counter("orchestrator.naive_marginal_evals").value
    assert 0 < lazy < naive
    lat_stats = METRICS.cache("evaluator.latency_matrix")

    benchmark.extra_info["solve_s"] = round(elapsed, 3)
    benchmark.extra_info["speedup_vs_baseline"] = round(
        PRE_PR_BASELINE_S / elapsed, 2
    )
    benchmark.extra_info["marginal_evals"] = lazy
    benchmark.extra_info["naive_marginal_evals"] = naive
    benchmark.extra_info["laziness_ratio"] = round(lazy / naive, 4)
    benchmark.extra_info["latency_matrix_hit_rate"] = round(
        lat_stats.hit_rate, 4
    )
    benchmark.extra_info["pairs"] = len(pairs)
    benchmark.extra_info["backend"] = orchestrators[-1].evaluator.backend.name

    # Optimality envelope: the greedy's benefit must sit at or below the LP
    # relaxation of the selection problem at its distinct-peering budget —
    # a speed regression that corrupts Eq.-2 evaluation trips this.
    if HAVE_LP_GATE:
        envelope = assert_lp_sound(orchestrators[-1].evaluator, config)
        benchmark.extra_info["benefit"] = round(envelope.benefit, 4)
        benchmark.extra_info["lp_bound"] = round(envelope.bound, 4)
        benchmark.extra_info["lp_budget"] = envelope.budget
        benchmark.extra_info["optimality_utilization"] = round(
            envelope.utilization, 4
        )
    else:
        benchmark.extra_info["lp_bound"] = "scipy unavailable"

    # One prefix_scan span per allocated prefix landed in the journal.
    journal = journals[-1]
    scans = [s for s in journal.spans() if s["name"] == "orchestrator.prefix_scan"]
    assert len(scans) >= len(config.prefixes)
    benchmark.extra_info["journal_records"] = len(journal)
