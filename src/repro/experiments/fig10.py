"""Fig. 10: failover timescales — PAINTER vs anycast reconvergence vs DNS.

Shape targets: PAINTER restores the data plane within a few RTTs (tens of
ms); the anycast prefix is unreachable for about a second and keeps
exploring paths (visible as BGP update churn) for ~15 s; a DNS-directed
client waits out the TTL (~60 s).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.experiments.harness import ExperimentResult
from repro.traffic_manager.failover import (
    FailoverConfig,
    FailoverResult,
    PathSpec,
    default_fig10_paths,
    run_failover,
)


def run_fig10(
    paths: Optional[Sequence[PathSpec]] = None,
    config: Optional[FailoverConfig] = None,
    series_step_s: float = 4.0,
) -> ExperimentResult:
    paths = list(paths) if paths is not None else default_fig10_paths()
    outcome = run_failover(paths, config)

    result = ExperimentResult(
        experiment_id="fig10",
        title="Failover timeline: per-prefix latency, selection, BGP churn",
        columns=["time_s", "active_prefix", "anycast_rtt_ms", "chosen_rtt_ms", "bgp_updates"],
    )
    latency_series = outcome.path_latency_series(step_s=series_step_s)
    churn = dict(outcome.bgp_update_series(bin_s=series_step_s))
    anycast_prefix = next(p.prefix for p in paths if p.is_anycast)
    anycast_series = dict(latency_series[anycast_prefix])

    t = 0.0
    while t <= outcome.config.duration_s:
        active = outcome.active_prefix_at(t)
        anycast_rtt = anycast_series.get(t, math.inf)
        chosen_rtt = math.inf
        if active is not None:
            chosen_rtt = dict(latency_series[active]).get(t, math.inf)
        result.add_row(
            t,
            active or "-",
            anycast_rtt if not math.isinf(anycast_rtt) else -1.0,
            chosen_rtt if not math.isinf(chosen_rtt) else -1.0,
            churn.get(t, 0),
        )
        t += series_step_s

    result.add_note(f"PAINTER downtime: {outcome.painter_downtime_ms:.1f} ms")
    result.add_note(f"anycast loss window: {outcome.anycast_loss_s:.2f} s")
    result.add_note(f"anycast reconvergence: {outcome.anycast_reconvergence_s:.1f} s")
    result.add_note(f"DNS failover (TTL-bound): {outcome.dns_downtime_s:.0f} s")
    result.add_note("latency -1.0 marks an unreachable prefix")
    result.evidence["outcome"] = outcome
    return result


def failover_summary(
    paths: Optional[Sequence[PathSpec]] = None,
    config: Optional[FailoverConfig] = None,
) -> FailoverResult:
    """The raw simulation result, for tests and ad-hoc analysis."""
    return run_failover(list(paths) if paths is not None else default_fig10_paths(), config)


# -- claims (checked by ``repro report`` at the registry's ``claims_at``) ----


def rtt_timescale_failover(result: ExperimentResult) -> None:
    outcome = result.evidence["outcome"]
    # The paper's timescale separation: tens of ms / ~1 s / ~60 s.
    assert outcome.painter_downtime_ms < 100.0
    assert 0.3 <= outcome.anycast_loss_s <= 3.0
    assert 5.0 <= outcome.anycast_reconvergence_s <= 30.0
    assert outcome.dns_downtime_s == 60.0
