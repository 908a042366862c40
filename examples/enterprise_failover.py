"""The Figure 1 story: a regional ISP's peering router fails.

An enterprise branch office reaches the cloud through a close PoP.  The
peering there fails; the default anycast route hauls traffic to a distant
PoP while BGP reconverges, and a DNS-based fix waits out the TTL.  PAINTER's
TM-Edge detects the failure in about one RTT and tunnels flows onto a
policy-compliant backup path through a transit ISP.

Run with::

    python examples/enterprise_failover.py
"""

from __future__ import annotations

from repro.faults import FaultSchedule
from repro.traffic_manager.failover import (
    FailoverConfig,
    PathSpec,
    run_failover,
)


def main() -> None:
    # City A's close PoP hosts the default path (via the regional ISP) and a
    # transit alternative; City B's distant PoP is the anycast fallback.
    paths = [
        PathSpec(
            prefix="1.1.1.0/24",  # anycast at both PoPs
            pop_name="city-a",
            base_rtt_ms=18.0,
            is_anycast=True,
            backup_rtt_ms=95.0,  # the circuitous path to City B
        ),
        PathSpec(prefix="2.2.2.0/24", pop_name="city-a", base_rtt_ms=14.0),  # regional ISP
        PathSpec(prefix="3.3.3.0/24", pop_name="city-a", base_rtt_ms=21.0),  # transit ISP
        PathSpec(prefix="4.4.4.0/24", pop_name="city-b", base_rtt_ms=92.0),  # distant PoP
    ]
    config = FailoverConfig(
        duration_s=130.0,
        schedule=FaultSchedule.single_pop_outage("city-a", 60.0),
    )

    # Note: the whole City A PoP fails here (the paper's Fig. 10 setup); the
    # transit path at City A dies with it and PAINTER lands on City B.
    result = run_failover(paths, config)

    print("timeline (sampled):")
    for t in (0, 30, 59, 61, 65, 80, 120):
        active = result.active_prefix_at(float(t))
        print(f"  t={t:>3}s  active path: {active}")

    print("\noutage comparison after the City A failure:")
    print(f"  PAINTER (TM-Edge failover) : {result.painter_downtime_ms:8.1f} ms")
    print(f"  anycast (BGP withdrawal)   : {result.anycast_loss_s * 1000:8.1f} ms loss, "
          f"{result.anycast_reconvergence_s:.1f} s of path exploration")
    print(f"  DNS re-steering (TTL-bound): {result.dns_downtime_s * 1000:8.1f} ms")

    churn = result.bgp_update_series(bin_s=5.0)
    busy = [(t, c) for t, c in churn if c > 0]
    print("\nBGP update churn (5 s bins):")
    for t, count in busy:
        print(f"  t={t:5.0f}s  {'#' * count} ({count})")


if __name__ == "__main__":
    main()
