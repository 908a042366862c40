"""Azure-preset smoke run of the soak harness.

A short simulated day on the azure-preset world — diurnal load, a flash
crowd, a rolling regional storm, online warm re-solves, failover remaps,
per-UG SLO accounting — must offer a day's worth of flows and close flow
accounting with zero errors.  The steering rate (``forward()`` wall time
only) is recorded in ``extra_info``; data-plane speed is gated by the
``day-proto`` and ``tm-churn`` workloads of ``python -m bench``.

Carries the ``bench`` and ``soak`` markers (via benchmarks/conftest.py),
so CI's benchmark-smoke job selects exactly this run with
``-m 'bench and soak'``.
"""

from __future__ import annotations

from repro.soak import SoakConfig, run_soak

WINDOWS = 6
ARRIVALS_PER_WINDOW = 120_000


def test_bench_soak_azure(benchmark):
    cfg = SoakConfig(
        preset="azure",
        seed=0,
        windows=WINDOWS,
        window_s=86_400.0 / WINDOWS,
        arrivals_per_window=ARRIVALS_PER_WINDOW,
        flow_lifetime_windows=2,
        prefix_budget=4,
        plane="vector",
        shifts_per_window=8,
        storm_regions=1,
        flash_crowds=1,
    )

    result = benchmark.pedantic(
        lambda: run_soak(cfg), rounds=1, iterations=1
    )

    summary = result.summary()
    # Scale: the diurnal curve must actually offer a day's worth of flows.
    assert summary["offered"] >= WINDOWS * ARRIVALS_PER_WINDOW * 0.5

    # Accounting: zero errors over the whole day.
    result.ledger.check_invariants()
    assert summary["accounting_errors"] == 0

    benchmark.extra_info["flows_per_s"] = result.flows_per_s
    benchmark.extra_info["flows_forwarded"] = result.flows_forwarded
    benchmark.extra_info["fleet_p99_ms"] = summary["fleet_p99_ms"]
    benchmark.extra_info["total_downtime_s"] = summary["total_downtime_s"]
    benchmark.extra_info["fingerprint"] = summary["fingerprint"]
