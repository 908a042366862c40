"""Wall-clock benchmark of Algorithm 1 on the azure preset.

``solve()`` on ``azure_scenario(seed=0)`` must produce the golden
advertisement configuration, its perf counters must show the heap actually
skipped the work a naive greedy would have done, and its benefit must sit
inside the LP envelope.  The wall-clock time is recorded in ``extra_info``
(speed is gated by ``python -m bench``, not here).
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

GOLDEN_PATH = Path(__file__).parent.parent / "tests" / "data" / "golden_solve_configs.json"


def test_bench_solve_azure(benchmark):
    golden = json.loads(GOLDEN_PATH.read_text())["azure_seed0"]
    scenario = azure_scenario(seed=0)

    journals = []
    orchestrators = []

    def run():
        METRICS.reset()
        orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=golden["budget"]))
        # Telemetry live during the timed region, so ``solve_s`` includes
        # tracing overhead on the solver's hot path.
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

    # Laziness: the heap must have skipped most naive re-evaluations.
    lazy = METRICS.counter("orchestrator.marginal_evals").value
    naive = METRICS.counter("orchestrator.naive_marginal_evals").value
    assert 0 < lazy < naive
    lat_stats = METRICS.cache("evaluator.latency_matrix")

    benchmark.extra_info["solve_s"] = round(elapsed, 3)
    benchmark.extra_info["marginal_evals"] = lazy
    benchmark.extra_info["naive_marginal_evals"] = naive
    benchmark.extra_info["laziness_ratio"] = round(lazy / naive, 4)
    benchmark.extra_info["latency_matrix_hit_rate"] = round(
        lat_stats.hit_rate, 4
    )
    benchmark.extra_info["pairs"] = len(pairs)

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
