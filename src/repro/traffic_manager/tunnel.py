"""The Appendix D tunneling data plane: encapsulation, NAT, return path.

Models the six-step packet journey of Figure 13:

1. the client's packet reaches TM-Edge;
2. TM-Edge encapsulates it in UDP with the outer destination set to the
   chosen ingress prefix's address;
3. TM-PoP decapsulates and NATs it, storing (client IP, client port) in the
   "Known Flows" table keyed by the (TM-PoP IP, NAT port) it allocated;
4. the cloud service replies to the TM-PoP address;
5. TM-PoP restores the client address from the table, re-encapsulates, and
   sends the packet back to TM-Edge;
6. TM-Edge decapsulates and forwards to the client.

The NAT exists so return traffic flows back through the tunnel rather than
directly to the client.  Each TM-PoP address supports 65k concurrent
connections ("each TM-PoP has multiple IP addresses/NICs and so handles 65k
connections for each IP address").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.traffic_manager.flows import FiveTuple

#: UDP encapsulation overhead per packet (paper: ~16 bytes per 1400).
ENCAP_OVERHEAD_BYTES = 16

#: Ports per NAT address (ephemeral port space).
PORTS_PER_ADDRESS = 65_000


@dataclass(frozen=True)
class Packet:
    """A (possibly encapsulated) packet."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: str
    payload_bytes: int
    inner: Optional["Packet"] = None

    @property
    def is_encapsulated(self) -> bool:
        return self.inner is not None

    @property
    def wire_bytes(self) -> int:
        if self.inner is not None:
            return self.inner.wire_bytes + ENCAP_OVERHEAD_BYTES
        return self.payload_bytes


class NatExhaustedError(RuntimeError):
    """All NAT addresses/ports on a TM-PoP are in use."""


@dataclass(frozen=True)
class NatBinding:
    """One Known-Flows entry: NAT endpoint -> original client endpoint."""

    nat_ip: str
    nat_port: int
    client_ip: str
    client_port: int
    edge_ip: str


class TMPoPNat:
    """The TM-PoP side of the tunnel: decapsulation, NAT, return path."""

    def __init__(self, nat_ips: List[str]) -> None:
        if not nat_ips:
            raise ValueError("a TM-PoP needs at least one NAT address")
        self._nat_ips = list(nat_ips)
        self._next_port: Dict[str, int] = {ip: 1024 for ip in nat_ips}
        self._bindings: Dict[Tuple[str, int], NatBinding] = {}
        self._by_client: Dict[Tuple[str, int, str], NatBinding] = {}

    @property
    def capacity(self) -> int:
        return len(self._nat_ips) * PORTS_PER_ADDRESS

    @property
    def active_bindings(self) -> int:
        return len(self._bindings)

    def _allocate(self, client_ip: str, client_port: int, edge_ip: str) -> NatBinding:
        key = (client_ip, client_port, edge_ip)
        existing = self._by_client.get(key)
        if existing is not None:
            return existing
        for nat_ip in self._nat_ips:
            port = self._next_port[nat_ip]
            if port >= 1024 + PORTS_PER_ADDRESS:
                continue
            self._next_port[nat_ip] = port + 1
            binding = NatBinding(
                nat_ip=nat_ip,
                nat_port=port,
                client_ip=client_ip,
                client_port=client_port,
                edge_ip=edge_ip,
            )
            self._bindings[(nat_ip, port)] = binding
            self._by_client[key] = binding
            return binding
        raise NatExhaustedError(f"all {self.capacity} NAT ports in use")

    def ingress(self, packet: Packet) -> Packet:
        """Steps 3-4: decapsulate an edge packet, NAT toward the service."""
        if not packet.is_encapsulated:
            raise ValueError("TM-PoP ingress expects an encapsulated packet")
        inner = packet.inner
        assert inner is not None
        binding = self._allocate(inner.src_ip, inner.src_port, packet.src_ip)
        return Packet(
            src_ip=binding.nat_ip,
            dst_ip=inner.dst_ip,
            src_port=binding.nat_port,
            dst_port=inner.dst_port,
            proto=inner.proto,
            payload_bytes=inner.payload_bytes,
        )

    def egress(self, packet: Packet) -> Packet:
        """Steps 4-5: match the service reply, restore client, re-encapsulate."""
        binding = self._bindings.get((packet.dst_ip, packet.dst_port))
        if binding is None:
            raise KeyError(
                f"no Known-Flows entry for {packet.dst_ip}:{packet.dst_port}"
            )
        restored = Packet(
            src_ip=packet.src_ip,
            dst_ip=binding.client_ip,
            src_port=packet.src_port,
            dst_port=binding.client_port,
            proto=packet.proto,
            payload_bytes=packet.payload_bytes,
        )
        return Packet(
            src_ip=binding.nat_ip,
            dst_ip=binding.edge_ip,
            src_port=binding.nat_port,
            dst_port=binding.client_port,
            proto="udp",
            payload_bytes=restored.payload_bytes,
            inner=restored,
        )


def encapsulate(packet: Packet, edge_ip: str, tunnel_dst_ip: str, tunnel_port: int = 4789) -> Packet:
    """Step 2: TM-Edge wraps a client packet toward the chosen ingress."""
    if packet.is_encapsulated:
        raise ValueError("packet is already encapsulated")
    return Packet(
        src_ip=edge_ip,
        dst_ip=tunnel_dst_ip,
        src_port=tunnel_port,
        dst_port=tunnel_port,
        proto="udp",
        payload_bytes=packet.payload_bytes,
        inner=packet,
    )


def decapsulate(packet: Packet) -> Packet:
    """Step 6: TM-Edge unwraps a return packet for the client."""
    if not packet.is_encapsulated:
        raise ValueError("packet is not encapsulated")
    inner = packet.inner
    assert inner is not None
    return inner
