"""Compute-backend benchmark gates.

Two headline claims of the pluggable-kernel work, each CI-gated:

* **numba speedup** — the compiled backend must solve the azure preset at
  least 3x faster than the numpy reference *while producing the
  bit-identical golden configuration* (skipped where numba is not
  installed; the numpy-only CI leg exercises the fallback path instead);
* **mega memory** — building and solving the 100k-UG ``mega`` preset
  through the dense-matrix layout must stay inside a fixed peak-RSS
  budget, so the per-UG dict layout can never silently come back.

Timing, backend identity, and compile-time attribution all land in
``benchmark.extra_info`` so the saved JSON doubles as the PR's artifact.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path

import pytest

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.kernels import available_backends
from repro.scenario import azure_scenario, mega_scenario
from repro.telemetry import METRICS, telemetry_session

try:  # LP optimality envelope (needs scipy; see repro.optimality.gates)
    import scipy  # noqa: F401

    from repro.optimality import assert_lp_sound

    HAVE_LP_GATE = True
except ImportError:  # pragma: no cover - scipy installed in CI bench jobs
    HAVE_LP_GATE = False

HAVE_NUMBA = "numba" in available_backends()

GOLDEN_PATH = Path(__file__).parent.parent / "tests" / "data" / "golden_solve_configs.json"

#: Required numba-over-numpy wall-clock ratio on the azure solve.
NUMBA_MIN_SPEEDUP = 3.0

#: Peak-RSS budget for the mega build+solve (see tests/test_mega_preset.py
#: for the measured ~5.0 GB baseline this derives from).
MEGA_PEAK_RSS_BYTES = 8 * 1024**3


def _timed_solve(scenario, backend: str, budget: int):
    """One warmed solve: returns (config, seconds, compile_seconds)."""
    METRICS.reset()
    orchestrator = PainterOrchestrator(
        scenario, OrchestratorConfig(prefix_budget=budget, backend=backend)
    )
    try:
        start = time.perf_counter()
        config = orchestrator.solve()
        elapsed = time.perf_counter() - start
    finally:
        orchestrator.close()
    return (
        config,
        elapsed,
        METRICS.timer("kernels.compile_s").total_s,
        orchestrator,
    )


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
def test_bench_numba_speedup_azure(benchmark):
    golden = json.loads(GOLDEN_PATH.read_text())["azure_seed0"]
    scenario = azure_scenario(seed=0)
    budget = golden["budget"]

    # Reference leg (untimed by the harness, timed manually).
    numpy_config, numpy_s, _, _ = _timed_solve(scenario, "numpy", budget)

    results = []

    def run():
        results.append(_timed_solve(scenario, "numba", budget))
        return results[-1]

    numba_config, numba_s, compile_s, orchestrator = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # Bit-exactness before speed: both backends must emit the golden config.
    def pairs(config):
        return sorted(
            [prefix, pid]
            for prefix in config.prefixes
            for pid in config.peerings_for(prefix)
        )

    assert pairs(numpy_config) == golden["pairs"]
    assert pairs(numba_config) == golden["pairs"]

    speedup = numpy_s / numba_s
    assert speedup >= NUMBA_MIN_SPEEDUP, (
        f"numba solve {numba_s:.2f}s vs numpy {numpy_s:.2f}s — only "
        f"{speedup:.2f}x, gate is {NUMBA_MIN_SPEEDUP}x"
    )

    if HAVE_LP_GATE:
        envelope = assert_lp_sound(orchestrator.evaluator, numba_config)
        benchmark.extra_info["lp_bound"] = round(envelope.bound, 4)
        benchmark.extra_info["optimality_utilization"] = round(
            envelope.utilization, 4
        )

    benchmark.extra_info["backend"] = "numba"
    benchmark.extra_info["numpy_solve_s"] = round(numpy_s, 3)
    benchmark.extra_info["numba_solve_s"] = round(numba_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["compile_s"] = round(compile_s, 3)


def test_bench_backend_fallback_costs_nothing(benchmark):
    """Numpy-only environments: an explicit ``numba`` request must degrade
    to a solve that matches the numpy reference exactly (and log it)."""
    if HAVE_NUMBA:
        pytest.skip("numba installed; fallback leg runs on the numpy-only job")
    golden = json.loads(GOLDEN_PATH.read_text())["prototype_seed0"]
    from repro.scenario import prototype_scenario

    scenario = prototype_scenario(seed=0)

    def run():
        METRICS.reset()
        with telemetry_session("bench-fallback") as journal:
            with pytest.warns(RuntimeWarning, match="falling back"):
                orchestrator = PainterOrchestrator(
                    scenario,
                    OrchestratorConfig(
                        prefix_budget=golden["budget"], backend="numba"
                    ),
                )
            config = orchestrator.solve()
        return config, journal

    config, journal = benchmark.pedantic(run, rounds=1, iterations=1)
    pairs = sorted(
        [prefix, pid]
        for prefix in config.prefixes
        for pid in config.peerings_for(prefix)
    )
    assert pairs == golden["pairs"]
    assert METRICS.counter("kernels.fallbacks").value == 1
    assert len(journal.events("backend_fallback")) == 1
    benchmark.extra_info["backend"] = "numpy (fallback)"
    benchmark.extra_info["fallbacks"] = METRICS.counter("kernels.fallbacks").value


def test_bench_mega_memory_budget(benchmark):
    """Build + budget-2 solve of the 100k-UG mega preset under the RSS gate."""

    def run():
        METRICS.reset()
        scenario = mega_scenario()
        orchestrator = PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=2)
        )
        start = time.perf_counter()
        config = orchestrator.solve()
        solve_s = time.perf_counter() - start
        backend = orchestrator.evaluator.backend
        assert backend.latency_matrix is not None
        assert backend.distance_matrix is not None
        return scenario, config, solve_s, orchestrator.evaluator.backend.name

    scenario, config, solve_s, backend_name = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert len(scenario.user_groups) >= 100_000
    assert len(scenario.deployment.pops) >= 500
    assert config.pair_count > 0

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert peak <= MEGA_PEAK_RSS_BYTES, (
        f"mega peak RSS {peak / 1e9:.2f} GB exceeds the "
        f"{MEGA_PEAK_RSS_BYTES / 1e9:.1f} GB gate"
    )

    benchmark.extra_info["backend"] = backend_name
    benchmark.extra_info["peak_rss_gb"] = round(peak / 1e9, 3)
    benchmark.extra_info["solve_s"] = round(solve_s, 3)
    benchmark.extra_info["materialize_s"] = round(
        METRICS.timer("kernels.materialize_s").total_s, 3
    )
    benchmark.extra_info["ugs"] = len(scenario.user_groups)
    benchmark.extra_info["peerings"] = len(scenario.deployment.peerings)
