"""Azure-preset gates of the slow tier: solve, warm restart, soak.

* Algorithm 1 on ``azure_scenario(seed=0)`` must produce the golden
  advertisement configuration, its perf counters must show the heap actually
  skipped the work a naive greedy would have done, and its benefit must sit
  inside the LP envelope.
* After a single-UG volume delta, a warm-started re-solve must reconverge in
  at most 25% of the cold-solve wall time while remaining bit-identical to a
  from-scratch solve of the mutated world.
* A short simulated day (diurnal load, a flash crowd, a rolling regional
  storm, online warm re-solves, failover remaps, per-UG SLO accounting) must
  offer a day's worth of flows, fail flows over off dead destinations, close
  flow accounting with zero errors and leave ``soak.window`` spans in a live
  journal.  With immortal flows the same day must end with one million
  concurrent flows in the :class:`VectorFlowTable`.

Speed itself is gated by ``python -m bench`` against the previous commit.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.scenario import azure_scenario
from repro.soak import SoakConfig, run_soak
from repro.telemetry import METRICS, load_journal, telemetry_session

try:  # LP optimality envelope (needs scipy; see repro.optimality.gates)
    import scipy  # noqa: F401

    from repro.optimality import assert_lp_sound

    HAVE_LP_GATE = True
except ImportError:  # pragma: no cover - scipy installed in CI's slow tier
    HAVE_LP_GATE = False

pytestmark = pytest.mark.slow

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_solve_configs.json"


def config_pairs(config):
    return sorted(
        [prefix, pid]
        for prefix in config.prefixes
        for pid in config.peerings_for(prefix)
    )


def test_solve_azure():
    golden = json.loads(GOLDEN_PATH.read_text())["azure_seed0"]
    scenario = azure_scenario(seed=0)

    METRICS.reset()
    orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=golden["budget"]))
    # Telemetry live during the solve, so tracing runs on the solver's hot path.
    with telemetry_session("azure-solve", include_timings=True) as journal:
        config = orchestrator.solve()

    # Correctness first: the fast path must not change the solved config.
    pairs = config_pairs(config)
    assert pairs == golden["pairs"]

    # Laziness: the heap must have skipped most naive re-evaluations.
    lazy = METRICS.counter("orchestrator.marginal_evals").value
    naive = METRICS.counter("orchestrator.naive_marginal_evals").value
    assert 0 < lazy < naive

    # Optimality envelope: the greedy's benefit must sit at or below the LP
    # relaxation of the selection problem at its distinct-peering budget —
    # a speed regression that corrupts Eq.-2 evaluation trips this.
    if HAVE_LP_GATE:
        assert_lp_sound(orchestrator.evaluator, config)

    # One prefix_scan span per allocated prefix landed in the journal.
    scans = [s for s in journal.spans() if s["name"] == "orchestrator.prefix_scan"]
    assert len(scans) >= len(config.prefixes)


#: Warm single-delta reconvergence wall time as a fraction of the cold
#: solve.  Measured 0.14-0.22 when the gate was merged; 0.08-0.09 since the
#: scan state went array-resident (cold 3.8-4.8 s, warm 0.35-0.40 s, against
#: 7.2 s / 0.86 s = 0.12 before it on the same box) - both sides of the
#: ratio got faster, the warm one more so.
MAX_WARM_RATIO = 0.25

BUDGET = 10


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


def test_warm_restart_ratio():
    # Two trials; the gate takes the better ratio so a one-off scheduler
    # hiccup in either timed region cannot fail an otherwise-healthy run.
    trials = [one_trial() for _ in range(2)]
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
            assert_lp_sound(reference.evaluator, warm_config)
    finally:
        reference.close()

    # The patch path (not wholesale fresh evaluation) carried the re-solve.
    assert stats.mode == "warm"
    assert stats.patched_evals > 0
    assert stats.reused_evals > 0

    ratio = warm_s / cold_s
    assert ratio <= MAX_WARM_RATIO, (
        f"warm re-solve took {warm_s:.2f}s vs cold {cold_s:.2f}s "
        f"(ratio {ratio:.3f} > {MAX_WARM_RATIO})"
    )


@pytest.mark.soak
@pytest.mark.parametrize(
    "windows, arrivals, lifetime, min_live_flows",
    [
        # A day of flows that expire after two windows.
        (6, 120_000, 2, 0),
        # Immortal flows: every served flow is still live at the end.
        (5, 250_000, 0, 1_000_000),
    ],
    ids=["expiring", "million-flows"],
)
def test_soak_azure(tmp_path, windows, arrivals, lifetime, min_live_flows):
    cfg = SoakConfig(
        preset="azure",
        seed=0,
        windows=windows,
        window_s=86_400.0 / windows,
        arrivals_per_window=arrivals,
        flow_lifetime_windows=lifetime,
        prefix_budget=4,
        plane="vector",
        shifts_per_window=8,
        storm_regions=1,
        flash_crowds=1,
    )
    with telemetry_session("azure-soak", include_timings=True) as journal:
        result = run_soak(cfg, tmp_path / "cp")

    summary = result.summary()
    # Scale: the diurnal curve must actually offer a day's worth of flows.
    assert summary["offered"] >= windows * arrivals * 0.5
    last = load_journal(result.controller.journal_path).events("soak_window")[-1]
    assert last["live_flows"] >= min_live_flows, (
        f"{last['live_flows']:,} concurrent flows at the end; "
        f"expected at least {min_live_flows:,}"
    )

    # The storm's failover actually moved pinned flows off dead destinations.
    assert result.flows_moved > 0

    # Accounting: zero errors over the whole day.
    result.ledger.check_invariants()
    assert summary["accounting_errors"] == 0

    # Telemetry was live for the whole run: spans must have landed.
    assert any(s["name"] == "soak.window" for s in journal.spans())
