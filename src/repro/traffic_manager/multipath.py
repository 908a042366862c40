"""Multipath edge proxy: the MPTCP/MPQUIC variant of TM-Edge (§2.3, §3.2).

The paper situates TM-Edge in cloud-edge network stacks but notes "PAINTER
could use other edge presences such as MPTCP-enabled clients".  A multipath
client opens *subflows* over several exposed prefixes simultaneously, which
buys two things over single-path tunneling:

* **aggregate throughput** — demand splits across paths in proportion to
  their capacity (coupled congestion control approximated as water-filling);
* **zero-loss failover** — when a subflow's path dies, its traffic shifts to
  surviving subflows on the next scheduler decision instead of after a
  detection timeout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Subflow:
    """One subflow over a destination prefix."""

    prefix: str
    rtt_ms: float
    capacity_mbps: float

    def __post_init__(self) -> None:
        if self.rtt_ms <= 0 and not math.isinf(self.rtt_ms):
            raise ValueError("rtt must be positive")
        if self.capacity_mbps < 0:
            raise ValueError("capacity must be non-negative")

    @property
    def is_up(self) -> bool:
        return not math.isinf(self.rtt_ms) and self.capacity_mbps > 0


class MultipathConnection:
    """A connection striped over several subflows."""

    def __init__(self, subflows: Sequence[Subflow]) -> None:
        if not subflows:
            raise ValueError("need at least one subflow")
        prefixes = [s.prefix for s in subflows]
        if len(prefixes) != len(set(prefixes)):
            raise ValueError("duplicate subflow prefixes")
        self._subflows: Dict[str, Subflow] = {s.prefix: s for s in subflows}

    @property
    def subflows(self) -> List[Subflow]:
        return list(self._subflows.values())

    def live_subflows(self) -> List[Subflow]:
        return [s for s in self._subflows.values() if s.is_up]

    def schedule(self, demand_mbps: float) -> Dict[str, float]:
        """Split demand across live subflows, lowest-RTT first.

        Mirrors an MPTCP lowest-RTT-first scheduler: fill the fastest
        subflow to capacity, then spill to the next.  Returns per-prefix
        allocated Mbps (may sum to less than demand if capacity-limited).
        """
        if demand_mbps < 0:
            raise ValueError("demand must be non-negative")
        allocation: Dict[str, float] = {}
        remaining = demand_mbps
        for subflow in sorted(self.live_subflows(), key=lambda s: (s.rtt_ms, s.prefix)):
            if remaining <= 0:
                break
            take = min(remaining, subflow.capacity_mbps)
            if take > 0:
                allocation[subflow.prefix] = take
                remaining -= take
        return allocation

    def fail_subflow(self, prefix: str) -> "MultipathConnection":
        """The connection after a path failure (subflow marked dead)."""
        if prefix not in self._subflows:
            raise KeyError(f"no subflow on {prefix!r}")
        updated = [
            Subflow(prefix=s.prefix, rtt_ms=math.inf, capacity_mbps=0.0)
            if s.prefix == prefix
            else s
            for s in self._subflows.values()
        ]
        return MultipathConnection(updated)

    def delivered_fraction(self, demand_mbps: float) -> float:
        """Fraction of demand the connection can carry right now."""
        if demand_mbps <= 0:
            return 1.0
        return sum(self.schedule(demand_mbps).values()) / demand_mbps


def failover_comparison(
    subflows: Sequence[Subflow],
    failed_prefix: str,
    demand_mbps: float,
    single_path_detection_ms: float,
) -> Tuple[float, float]:
    """(multipath outage ms, single-path outage ms) after a path failure.

    Multipath reschedules on the next RTT of a surviving subflow; a
    single-path tunnel is dark for the whole detection window.  If the
    remaining subflows cannot carry the demand, multipath still counts as
    recovered once rescheduled (degraded, not dark).
    """
    connection = MultipathConnection(subflows)
    after = connection.fail_subflow(failed_prefix)
    live = after.live_subflows()
    if not live:
        return (math.inf, math.inf)
    multipath_outage = min(s.rtt_ms for s in live)  # one scheduler RTT
    return (multipath_outage, single_path_detection_ms)
