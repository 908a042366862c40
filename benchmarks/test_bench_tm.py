"""Million-flow smoke run of the batched Traffic Manager data plane.

On the azure preset, the vectorized :class:`VectorFlowTable` must carry one
million concurrent flows through a replay whose last step kills the hottest
prefix, move every pinned flow off it, and leave spans in a live journal
(telemetry is *enabled* for the whole run).  The per-step rates are
recorded in ``extra_info`` only: data-plane speed is gated by the
``tm-churn`` and ``day-proto`` workloads of ``python -m bench``, against the
previous commit rather than a fixed constant.
"""

from __future__ import annotations

from repro.experiments.replay import ReplayConfig, run_traffic_replay
from repro.telemetry import METRICS, telemetry_session

#: Total arrivals across the run; all stay live, so this is also the
#: concurrent-flow count the final step carries.
TOTAL_FLOWS = 1_000_000

STEPS = 5


def test_bench_tm_azure(benchmark):
    config = ReplayConfig(
        preset="azure",
        seed=0,
        arrivals_per_step=TOTAL_FLOWS // STEPS,
        steps=STEPS,
        prefix_budget=4,
        fail_step=STEPS - 1,
    )

    journals = []

    def run():
        METRICS.reset()
        with telemetry_session("bench-tm", include_timings=True) as journal:
            replay = run_traffic_replay(config)
        journals.append(journal)
        return replay

    replay = benchmark.pedantic(run, rounds=1, iterations=1)

    # Scale: the run must actually reach a million concurrent flows.
    assert replay.peak_live_flows >= TOTAL_FLOWS * 0.99, (
        f"peak {replay.peak_live_flows:,} concurrent flows; "
        f"expected ~{TOTAL_FLOWS:,}"
    )

    # The failover actually moved pinned flows off the dead prefix.
    assert replay.failed_prefix is not None
    assert replay.flows_remapped > 0
    assert replay.failed_prefix not in replay.flows_by_destination

    benchmark.extra_info["peak_live_flows"] = replay.peak_live_flows
    benchmark.extra_info["total_admitted"] = replay.total_admitted
    benchmark.extra_info["min_kflows_per_s"] = round(
        replay.min_flows_per_s / 1e3, 1
    )
    benchmark.extra_info["flows_remapped"] = replay.flows_remapped
    benchmark.extra_info["step_s"] = [
        round(s.elapsed_s, 4) for s in replay.step_stats
    ]
    benchmark.extra_info["solve_s"] = round(
        METRICS.timer("replay.solve").total_s, 3
    )

    # Telemetry was live for the whole run: spans must have landed.
    journal = journals[-1]
    assert any(s["name"] == "replay.step" for s in journal.spans())
    benchmark.extra_info["journal_records"] = len(journal)
