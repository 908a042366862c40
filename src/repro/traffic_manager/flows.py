"""Flows: the transport 5-tuple a TM-Edge steers.

"Once the Traffic Manager maps a flow (5-tuple) to a TM-PoP, the mapping is
immutable for the lifetime of that flow" (§3.2) — this prevents loss of
connection state without a handover system.  New flows always go to the
currently-best destination; existing flows stay put.  The one sanctioned
exception is RTT-timescale failover: when a destination dies, its flows are
re-pinned wholesale to the replacement.

The flow store that enforces this lives in
:mod:`repro.traffic_manager.dataplane`, keyed by the 64-bit
:func:`~repro.traffic_manager.dataplane.flow_key` of a :class:`FiveTuple`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FiveTuple:
    """Transport 5-tuple identifying a flow."""

    proto: str
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int

    def __post_init__(self) -> None:
        if self.proto not in ("tcp", "udp"):
            raise ValueError(f"unsupported protocol {self.proto!r}")
        for port in (self.src_port, self.dst_port):
            if not 0 < port <= 65535:
                raise ValueError(f"invalid port {port}")
