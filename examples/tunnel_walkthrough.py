"""Walk a packet through the Traffic Manager data plane (Appendix D).

Shows the six-step journey of Figure 13: TM-Edge encapsulation, TM-PoP
decapsulation + NAT, service reply, NAT restoration, and final delivery.

Run with::

    python examples/tunnel_walkthrough.py
"""

from __future__ import annotations

from repro.topology.cloud import PoP
from repro.topology.geo import metro_by_name
from repro.traffic_manager.flows import FiveTuple
from repro.traffic_manager.tm_edge import TMEdge
from repro.traffic_manager.tm_pop import PrefixDirectory, TMPoP
from repro.traffic_manager.tunnel import Packet, TMPoPNat, decapsulate


def describe(step: str, packet: Packet) -> None:
    inner = " [encapsulated]" if packet.is_encapsulated else ""
    print(
        f"  {step}: {packet.src_ip}:{packet.src_port} -> "
        f"{packet.dst_ip}:{packet.dst_port} ({packet.proto}, "
        f"{packet.wire_bytes} bytes on the wire){inner}"
    )


def main() -> None:
    # Control plane: a TM-PoP serving the 'teams' service behind two prefixes.
    directory = PrefixDirectory()
    tm_pop = TMPoP(
        name="tm-newyork",
        pop=PoP(name="pop-newyork", metro=metro_by_name("new-york")),
        nat=TMPoPNat(nat_ips=["100.64.0.1", "100.64.0.2"]),
    )
    tm_pop.add_service("teams")
    tm_pop.attach_prefix("184.164.224.0/24")
    tm_pop.attach_prefix("184.164.225.0/24")
    directory.register(tm_pop)

    edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
    available = edge.resolve_service("teams")
    print(f"TM-Edge resolved {len(available)} destination prefixes: {sorted(available)}")
    edge.record_measurements(
        "teams", {"184.164.224.0/24": 14.0, "184.164.225.0/24": 22.0}
    )
    print(f"TM-Edge selected {edge.selected_prefix('teams')} (lowest RTT)\n")

    # Data plane: a client packet to the anycast service address.
    client_packet = Packet(
        src_ip="192.168.1.10",
        dst_ip="1.1.1.1",
        src_port=52311,
        dst_port=443,
        proto="tcp",
        payload_bytes=1400,
    )
    flow = FiveTuple(
        proto="tcp", src_ip="192.168.1.10", src_port=52311, dst_ip="1.1.1.1", dst_port=443
    )

    print("packet journey (Figure 13):")
    describe("1. client -> TM-Edge       ", client_packet)
    tunneled = edge.forward("teams", client_packet, flow, now_s=0.0)
    describe("2. TM-Edge tunnels          ", tunneled)
    toward_service = tm_pop.handle_ingress(tunneled)
    describe("3. TM-PoP NATs to service   ", toward_service)
    reply = Packet(
        src_ip="1.1.1.1",
        dst_ip=toward_service.src_ip,
        src_port=443,
        dst_port=toward_service.src_port,
        proto="tcp",
        payload_bytes=900,
    )
    describe("4. service replies          ", reply)
    back = tm_pop.handle_service_reply(reply)
    describe("5. TM-PoP returns via tunnel", back)
    final = decapsulate(back)
    describe("6. TM-Edge -> client        ", final)

    print(
        f"\nflows per destination: {edge.data_plane.destinations()}; "
        f"NAT bindings at TM-PoP: {tm_pop.nat.active_bindings}"
    )


if __name__ == "__main__":
    main()
