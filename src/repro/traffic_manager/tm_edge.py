"""TM-Edge: the edge-proxy side of the Traffic Manager.

A TM-Edge lives in a cloud-edge network stack inside the enterprise.  It
resolves the available destination prefixes per service (§3.2), measures
them continuously, selects the best via a hysteretic policy, maps new flows
to the current selection (immutably, per flow), and tunnels packets.

Every flow lives in one place, the edge's
:class:`~repro.traffic_manager.dataplane.VectorFlowTable`.  The
**batched** path (:meth:`TMEdge.forward_batch`) hands it whole batches;
the **per-flow** path (:meth:`TMEdge.admit_flow`, :meth:`TMEdge.forward`)
is a one-row batch keyed by
:func:`~repro.traffic_manager.dataplane.flow_key` of the
:class:`FiveTuple`.  A flow admitted through either surface is therefore
the same entry with the same pin, moved by failover and carried by
snapshots.  A one-row batch pays the table's whole per-batch overhead, so
the per-flow path suits examples and tests; traffic at scale goes through
:meth:`TMEdge.forward_batch`.

With ``remap_on_failover=True`` the edge re-pins flows off a tunnel the
moment a measurement round reports it dead (RTT-timescale failover, §5.2.3)
instead of leaving them pinned to a black hole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Mapping, Optional

from repro.telemetry import METRICS, TRACER, emit_event
from repro.traffic_manager.dataplane import (
    FlowBatch,
    ForwardResult,
    TM_SNAPSHOT_VERSION,
    VectorFlowTable,
)
from repro.traffic_manager.flows import FiveTuple
from repro.traffic_manager.selection import LowestLatencySelector
from repro.traffic_manager.tm_pop import PrefixDirectory, TMPoP
from repro.traffic_manager.tunnel import Packet, encapsulate


@dataclass
class TunnelState:
    """One established tunnel from this edge to a destination prefix."""

    prefix: str
    tm_pop_name: str
    last_rtt_ms: float = float("inf")

    @property
    def is_up(self) -> bool:
        return self.last_rtt_ms != float("inf")


class TMEdge:
    """The edge proxy node: resolution, measurement, selection, mapping."""

    def __init__(
        self,
        edge_ip: str,
        directory: PrefixDirectory,
        data_plane: Optional[VectorFlowTable] = None,
        remap_on_failover: bool = False,
    ) -> None:
        self._edge_ip = edge_ip
        self._directory = directory
        self._tunnels: Dict[str, Dict[str, TunnelState]] = {}  # service -> prefix -> state
        self._selectors: Dict[str, LowestLatencySelector] = {}
        self._plane = data_plane if data_plane is not None else VectorFlowTable()
        self._service_ids: Dict[str, int] = {}
        self._remap_on_failover = remap_on_failover
        self._flows_remapped = 0

    @property
    def edge_ip(self) -> str:
        return self._edge_ip

    @property
    def data_plane(self) -> VectorFlowTable:
        return self._plane

    @property
    def flows_remapped(self) -> int:
        """Total flows moved by failover re-mapping on this edge."""
        return self._flows_remapped

    def service_id(self, service: str) -> int:
        """Stable small integer for a service (assigned on first use)."""
        sid = self._service_ids.get(service)
        if sid is None:
            sid = len(self._service_ids)
            self._service_ids[service] = sid
        return sid

    # -- resolving available prefixes (§3.2) --------------------------------

    def resolve_service(self, service: str) -> FrozenSet[str]:
        """Query the directory, establish tunnels, learn prefix->PoP mapping."""
        prefixes = self._directory.prefixes_for_service(service)
        tunnels = self._tunnels.setdefault(service, {})
        for prefix in prefixes:
            if prefix in tunnels:
                continue
            tm_pop = self._directory.pop_for_prefix(prefix)
            if tm_pop is None:
                continue  # prefix announced but no TM-PoP behind it yet
            tunnels[prefix] = TunnelState(prefix=prefix, tm_pop_name=tm_pop.name)
        # Drop tunnels whose prefix is no longer available.
        for prefix in list(tunnels):
            if prefix not in prefixes:
                del tunnels[prefix]
        self._selectors.setdefault(service, LowestLatencySelector())
        self.service_id(service)
        return frozenset(tunnels)

    # -- measurement + selection -----------------------------------------------

    def record_measurements(self, service: str, rtts_ms: Mapping[str, float]) -> Optional[str]:
        """Feed one round of tunnel RTTs; returns the selected prefix.

        With ``remap_on_failover`` enabled, flows pinned to tunnels this
        round reports dead are re-pinned to the (new) selection in the same
        call — the data-plane half of RTT-timescale failover.
        """
        tunnels = self._tunnels.get(service)
        if tunnels is None:
            raise KeyError(f"service {service!r} not resolved yet")
        for prefix, rtt in rtts_ms.items():
            if prefix in tunnels:
                tunnels[prefix].last_rtt_ms = rtt
        selector = self._selectors[service]
        selected = selector.update(
            {prefix: state.last_rtt_ms for prefix, state in tunnels.items()}
        )
        if self._remap_on_failover and selected is not None:
            for prefix in sorted(tunnels):
                state = tunnels[prefix]
                if prefix != selected and not state.is_up:
                    with TRACER.span(
                        "tm_edge.remap_on_failover",
                        service=service, dead=prefix, selected=selected,
                    ) as span:
                        moved = self._plane.remap(prefix, selected)
                        span.tag("flows_moved", moved)
                    self._flows_remapped += moved
                    if moved:
                        emit_event(
                            "failover_remap",
                            service=service,
                            dead_prefix=prefix,
                            new_prefix=selected,
                            flows_moved=moved,
                        )
        return selected

    def selected_prefix(self, service: str) -> Optional[str]:
        selector = self._selectors.get(service)
        return None if selector is None else selector.current

    def selections_by_service_id(self) -> Dict[int, Optional[str]]:
        """Current per-service selections keyed by interned service id."""
        return {
            self._service_ids[service]: selector.current
            for service, selector in self._selectors.items()
            if service in self._service_ids
        }

    # -- flow handling (per-flow path: one-row batches) ----------------------

    def admit_flow(self, service: str, five_tuple: FiveTuple, now_s: float) -> str:
        """Pin a flow to the currently-best destination; returns its prefix.

        Idempotent: a flow already in the data plane — admitted by either
        surface — keeps and returns its immutable pin.
        """
        return self._one_flow(service, five_tuple, now_s, 0)

    def forward(self, service: str, packet: Packet, five_tuple: FiveTuple, now_s: float) -> Packet:
        """Tunnel a client packet along its flow's pinned destination."""
        prefix = self._one_flow(service, five_tuple, now_s, packet.payload_bytes)
        return encapsulate(packet, edge_ip=self._edge_ip, tunnel_dst_ip=_prefix_address(prefix))

    def _one_flow(
        self, service: str, five_tuple: FiveTuple, now_s: float, payload_bytes: int
    ) -> str:
        """Forward one flow carrying ``payload_bytes`` (0 = a pure
        admission) as a one-row batch; returns its pinned prefix, or raises
        when a new flow's service has no live destination."""
        sid = self.service_id(service)
        result = self._plane.forward(
            FlowBatch.from_flows([(five_tuple, sid, payload_bytes)]),
            {sid: self.selected_prefix(service)},
            now_s,
        )
        pid = int(result.assignments[0])
        if pid < 0:
            raise RuntimeError(f"no live destination for service {service!r}")
        return self._plane.prefix_name(pid)

    # -- flow handling (batched path) ---------------------------------------

    def forward_batch(self, batch: FlowBatch, now_s: float) -> ForwardResult:
        """Steer one arrival/traffic batch through the data plane.

        Service ids in the batch are the ones :meth:`service_id` assigned;
        each flow is pinned (on first sight) to its service's current
        selection, existing flows accumulate bytes on their immutable
        mapping, and flows of services with no live destination are dropped.
        """
        with TRACER.span("tm_edge.forward_batch", flows=len(batch)):
            with METRICS.timed("tm_edge.forward_batch"):
                return self._plane.forward(
                    batch, self.selections_by_service_id(), now_s
                )

    # -- state transfer ------------------------------------------------------

    def to_snapshot(self) -> Dict[str, Any]:
        """Versioned plain-data state (same convention as RoutingModel v2).

        Carries the tunnel tables, selector states, service-id interning,
        and the full data-plane snapshot, so an edge restored with
        :meth:`from_snapshot` steers exactly like the original.
        """
        return {
            "version": TM_SNAPSHOT_VERSION,
            "edge_ip": self._edge_ip,
            "remap_on_failover": self._remap_on_failover,
            "flows_remapped": self._flows_remapped,
            "services": dict(self._service_ids),
            "tunnels": {
                service: {
                    prefix: [state.tm_pop_name, state.last_rtt_ms]
                    for prefix, state in tunnels.items()
                }
                for service, tunnels in self._tunnels.items()
            },
            "selectors": {
                service: selector.to_snapshot()
                for service, selector in self._selectors.items()
            },
            "data_plane": self._plane.to_packed_snapshot(),
        }

    @classmethod
    def from_snapshot(
        cls, snapshot: Mapping[str, Any], directory: PrefixDirectory
    ) -> "TMEdge":
        """Rebuild an edge from :meth:`to_snapshot` against a directory;
        ``ValueError`` for a snapshot of another version or a malformed one."""
        try:
            version = snapshot.get("version")
            if version != TM_SNAPSHOT_VERSION:
                raise ValueError(f"unsupported snapshot version {version!r}")
            plane = VectorFlowTable.from_packed_snapshot(snapshot["data_plane"])
            edge = cls(
                edge_ip=snapshot["edge_ip"],
                directory=directory,
                data_plane=plane,
                remap_on_failover=bool(snapshot.get("remap_on_failover", False)),
            )
            edge._flows_remapped = int(snapshot.get("flows_remapped", 0))
            edge._service_ids = {
                name: int(sid) for name, sid in snapshot.get("services", {}).items()
            }
            edge._tunnels = {
                service: {
                    prefix: TunnelState(
                        prefix=prefix,
                        tm_pop_name=pop_name,
                        last_rtt_ms=float(rtt),
                    )
                    for prefix, (pop_name, rtt) in tunnels.items()
                }
                for service, tunnels in snapshot.get("tunnels", {}).items()
            }
            edge._selectors = {
                service: LowestLatencySelector.from_snapshot(state)
                for service, state in snapshot.get("selectors", {}).items()
            }
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed TM-Edge snapshot: {exc!r}") from exc
        return edge


def _prefix_address(prefix: str) -> str:
    """A representative destination address inside a /24 prefix."""
    base = prefix.split("/")[0]
    octets = base.split(".")
    octets[-1] = "1"
    return ".".join(octets)
