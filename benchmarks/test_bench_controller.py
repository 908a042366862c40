"""Warm-start reconvergence gate on the azure preset.

The controller's headline number: after a single-UG volume delta, a
warm-started re-solve must reconverge in at most 25% of the cold-solve
wall time — while remaining bit-identical to a from-scratch solve of the
mutated world.  Both halves are asserted here, so a regression in either
the memoized-summation patch path or its exactness fails the gate.
"""

from __future__ import annotations

import time

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import azure_scenario

try:  # LP optimality envelope (needs scipy; see repro.optimality.gates)
    import scipy  # noqa: F401

    from repro.optimality import assert_lp_sound

    HAVE_LP_GATE = True
except ImportError:  # pragma: no cover - scipy installed in CI bench jobs
    HAVE_LP_GATE = False

#: ISSUE acceptance criterion: warm single-delta reconvergence wall time
#: as a fraction of the cold solve.  Measured 0.14-0.22 when the gate was
#: merged; 0.08-0.09 since the scan state went array-resident (ISSUE 24:
#: cold 3.8-4.8 s, warm 0.35-0.40 s, against 7.2 s / 0.86 s = 0.12 for its
#: parent on the same box) - both sides of the ratio got faster, the warm
#: one more so.
MAX_WARM_RATIO = 0.25

BUDGET = 10


def config_pairs(config):
    return sorted(
        [prefix, pid]
        for prefix in config.prefixes
        for pid in config.peerings_for(prefix)
    )


def one_trial():
    """Cold solve, one-UG shift, warm re-solve; returns the timings."""
    scenario = azure_scenario(seed=0)
    orch = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=BUDGET))
    try:
        start = time.perf_counter()
        orch.solve_warm()
        cold_s = time.perf_counter() - start

        ug = scenario.user_groups[len(scenario.user_groups) // 2]
        target = ug.volume * 1.5
        orch.apply_volume_shift(ug.ug_id, target)

        start = time.perf_counter()
        warm_config = orch.solve_warm()
        warm_s = time.perf_counter() - start
        stats = orch.last_warm_stats
    finally:
        orch.close()
    return cold_s, warm_s, warm_config, ug.ug_id, target, stats


def test_bench_warm_restart_ratio(benchmark):
    trials = []

    def run():
        trials.append(one_trial())
        return trials[-1]

    # Two trials; the gate takes the better ratio so a one-off scheduler
    # hiccup in either timed region cannot fail an otherwise-healthy run.
    benchmark.pedantic(run, rounds=2, iterations=1)
    cold_s, warm_s, warm_config, ug_id, target, stats = min(
        trials, key=lambda t: t[1] / t[0]
    )

    # Exactness: the warm result must equal a cold solve of the same world.
    reference = PainterOrchestrator(
        azure_scenario(seed=0), OrchestratorConfig(prefix_budget=BUDGET)
    )
    reference.apply_volume_shift(ug_id, target)
    try:
        assert config_pairs(warm_config) == config_pairs(reference.solve_warm())
        # Optimality envelope on the warm result against the same world's
        # evaluator: warm-start replay may not inflate benefit past the LP
        # relaxation at the config's distinct-peering budget.
        if HAVE_LP_GATE:
            envelope = assert_lp_sound(reference.evaluator, warm_config)
            benchmark.extra_info["benefit"] = round(envelope.benefit, 4)
            benchmark.extra_info["lp_bound"] = round(envelope.bound, 4)
            benchmark.extra_info["optimality_utilization"] = round(
                envelope.utilization, 4
            )
        else:
            benchmark.extra_info["lp_bound"] = "scipy unavailable"
    finally:
        reference.close()

    # The patch path (not wholesale fresh evaluation) carried the re-solve.
    assert stats.mode == "warm"
    assert stats.patched_evals > 0
    assert stats.reused_evals > 0

    ratio = warm_s / cold_s
    benchmark.extra_info["cold_s"] = round(cold_s, 3)
    benchmark.extra_info["warm_s"] = round(warm_s, 3)
    benchmark.extra_info["ratio"] = round(ratio, 3)
    benchmark.extra_info["reused_evals"] = stats.reused_evals
    benchmark.extra_info["patched_evals"] = stats.patched_evals
    benchmark.extra_info["fresh_evals"] = stats.fresh_evals
    assert ratio <= MAX_WARM_RATIO, (
        f"warm re-solve took {warm_s:.2f}s vs cold {cold_s:.2f}s "
        f"(ratio {ratio:.3f} > {MAX_WARM_RATIO})"
    )
