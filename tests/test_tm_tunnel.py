"""Tunneling data plane: the full Appendix D packet journey."""

import pytest

from repro.traffic_manager.tunnel import (
    ENCAP_OVERHEAD_BYTES,
    NatExhaustedError,
    PORTS_PER_ADDRESS,
    Packet,
    TMPoPNat,
    decapsulate,
    encapsulate,
)

CLIENT = Packet(
    src_ip="192.168.1.10",
    dst_ip="1.1.1.1",  # the anycast service address the tenant targets
    src_port=50123,
    dst_port=443,
    proto="tcp",
    payload_bytes=1400,
)


class TestEncapsulation:
    def test_encapsulate_wraps(self):
        outer = encapsulate(CLIENT, edge_ip="203.0.113.1", tunnel_dst_ip="184.164.224.1")
        assert outer.is_encapsulated
        assert outer.src_ip == "203.0.113.1"
        assert outer.dst_ip == "184.164.224.1"
        assert outer.inner == CLIENT
        assert outer.wire_bytes == CLIENT.payload_bytes + ENCAP_OVERHEAD_BYTES

    def test_double_encapsulation_rejected(self):
        outer = encapsulate(CLIENT, "203.0.113.1", "184.164.224.1")
        with pytest.raises(ValueError):
            encapsulate(outer, "203.0.113.1", "184.164.224.1")

    def test_decapsulate_roundtrip(self):
        outer = encapsulate(CLIENT, "203.0.113.1", "184.164.224.1")
        assert decapsulate(outer) == CLIENT

    def test_decapsulate_plain_packet_rejected(self):
        with pytest.raises(ValueError):
            decapsulate(CLIENT)



class TestPacketJourney:
    """Steps 1-6 of Figure 13, end to end."""

    def test_full_journey_restores_addressing(self):
        nat = TMPoPNat(nat_ips=["100.64.0.1"])
        # (2) TM-Edge encapsulates toward the chosen ingress prefix.
        tunneled = encapsulate(CLIENT, edge_ip="203.0.113.1", tunnel_dst_ip="184.164.224.1")
        # (3) TM-PoP decapsulates and NATs toward the service.
        toward_service = nat.ingress(tunneled)
        assert toward_service.src_ip == "100.64.0.1"
        assert toward_service.dst_ip == CLIENT.dst_ip
        assert toward_service.dst_port == CLIENT.dst_port
        # (4) The service replies to the NAT endpoint.
        reply = Packet(
            src_ip=CLIENT.dst_ip,
            dst_ip=toward_service.src_ip,
            src_port=CLIENT.dst_port,
            dst_port=toward_service.src_port,
            proto="tcp",
            payload_bytes=900,
        )
        # (5) TM-PoP restores the client address and re-encapsulates.
        back_to_edge = nat.egress(reply)
        assert back_to_edge.is_encapsulated
        assert back_to_edge.dst_ip == "203.0.113.1"  # to the TM-Edge
        # (6) TM-Edge decapsulates; the client sees the service address.
        final = decapsulate(back_to_edge)
        assert final.dst_ip == CLIENT.src_ip
        assert final.dst_port == CLIENT.src_port
        assert final.src_ip == CLIENT.dst_ip

    def test_same_flow_reuses_binding(self):
        nat = TMPoPNat(nat_ips=["100.64.0.1"])
        tunneled = encapsulate(CLIENT, "203.0.113.1", "184.164.224.1")
        first = nat.ingress(tunneled)
        second = nat.ingress(tunneled)
        assert (first.src_ip, first.src_port) == (second.src_ip, second.src_port)
        assert nat.active_bindings == 1

    def test_distinct_flows_get_distinct_ports(self):
        nat = TMPoPNat(nat_ips=["100.64.0.1"])
        a = encapsulate(CLIENT, "203.0.113.1", "184.164.224.1")
        other_client = Packet(
            src_ip="192.168.1.11",
            dst_ip="1.1.1.1",
            src_port=50123,
            dst_port=443,
            proto="tcp",
            payload_bytes=100,
        )
        b = encapsulate(other_client, "203.0.113.1", "184.164.224.1")
        pa, pb = nat.ingress(a), nat.ingress(b)
        assert (pa.src_ip, pa.src_port) != (pb.src_ip, pb.src_port)

    def test_unknown_reply_rejected(self):
        nat = TMPoPNat(nat_ips=["100.64.0.1"])
        reply = Packet(
            src_ip="1.1.1.1", dst_ip="100.64.0.1", src_port=443, dst_port=2000,
            proto="tcp", payload_bytes=1,
        )
        with pytest.raises(KeyError):
            nat.egress(reply)

    def test_plain_packet_on_ingress_rejected(self):
        nat = TMPoPNat(nat_ips=["100.64.0.1"])
        with pytest.raises(ValueError):
            nat.ingress(CLIENT)


class TestNatCapacity:
    def test_capacity_per_address(self):
        nat = TMPoPNat(nat_ips=["100.64.0.1", "100.64.0.2"])
        assert nat.capacity == 2 * PORTS_PER_ADDRESS

    def test_needs_an_address(self):
        with pytest.raises(ValueError):
            TMPoPNat(nat_ips=[])

    def test_exhaustion_spills_to_next_address_then_fails(self):
        nat = TMPoPNat(nat_ips=["100.64.0.1", "100.64.0.2"])
        # Simulate exhaustion of the first address cheaply.
        nat._next_port["100.64.0.1"] = 1024 + PORTS_PER_ADDRESS
        tunneled = encapsulate(CLIENT, "203.0.113.1", "184.164.224.1")
        packet = nat.ingress(tunneled)
        assert packet.src_ip == "100.64.0.2"
        nat._next_port["100.64.0.2"] = 1024 + PORTS_PER_ADDRESS
        fresh = Packet(
            src_ip="192.168.1.99", dst_ip="1.1.1.1", src_port=1, dst_port=443,
            proto="tcp", payload_bytes=1,
        )
        with pytest.raises(NatExhaustedError):
            nat.ingress(encapsulate(fresh, "203.0.113.1", "184.164.224.1"))
