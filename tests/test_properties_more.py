"""More property-based suites: DNS traces, selection, multipath, tunnels."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.trace import CLOUD_PROFILES, TraceFlow, generate_trace
from repro.dns.records import DNSRecord
from repro.traffic_manager.multipath import MultipathConnection, Subflow
from repro.traffic_manager.selection import LowestLatencySelector
from repro.traffic_manager.tunnel import Packet, TMPoPNat, decapsulate, encapsulate


class TestTraceFlowProperties:
    @given(
        start=st.floats(min_value=0, max_value=7200, allow_nan=False),
        duration=st.floats(min_value=0.1, max_value=86400, allow_nan=False),
        total=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        offset=st.floats(min_value=-3600, max_value=86400, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_bytes_after_bounded_and_monotone(self, start, duration, total, offset):
        record = DNSRecord(hostname="h", address="a", ttl_s=60, issued_at_s=0.0)
        flow = TraceFlow(
            cloud="c", record=record, start_s=start, duration_s=duration, bytes_total=total
        )
        late = flow.bytes_after(offset)
        assert 0.0 <= late <= total
        assert flow.bytes_after(offset + 100.0) <= late + 1e-6

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_trace_generation_invariants(self, n_flows, seed):
        flows = generate_trace(CLOUD_PROFILES[1], n_flows=n_flows, seed=seed)
        assert len(flows) == n_flows
        for flow in flows:
            assert flow.duration_s > 0
            assert flow.bytes_total >= 0
            assert flow.start_s >= flow.record.issued_at_s


latency_rounds = st.lists(
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.one_of(st.floats(min_value=1, max_value=500), st.just(math.inf)),
        min_size=1,
        max_size=3,
    ),
    min_size=1,
    max_size=25,
)


class TestSelectorProperties:
    @given(latency_rounds)
    @settings(max_examples=60, deadline=None)
    def test_selection_always_live_or_none(self, rounds):
        selector = LowestLatencySelector()
        for latencies in rounds:
            selected = selector.update(latencies)
            live = {k for k, v in latencies.items() if not math.isinf(v)}
            if live:
                assert selected in live
            else:
                assert selected is None

    @given(latency_rounds)
    @settings(max_examples=60, deadline=None)
    def test_switch_count_bounded_by_rounds(self, rounds):
        selector = LowestLatencySelector()
        for latencies in rounds:
            selector.update(latencies)
        assert 0 <= selector.switch_count <= len(rounds)


subflows_strategy = st.lists(
    st.builds(
        Subflow,
        prefix=st.uuids().map(str),
        rtt_ms=st.floats(min_value=1, max_value=400),
        capacity_mbps=st.floats(min_value=0, max_value=1000),
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda s: s.prefix,
)


class TestMultipathProperties:
    @given(subflows_strategy, st.floats(min_value=0, max_value=5000))
    @settings(max_examples=60, deadline=None)
    def test_schedule_conserves_demand(self, subflows, demand):
        connection = MultipathConnection(subflows)
        allocation = connection.schedule(demand)
        total = sum(allocation.values())
        assert total <= demand + 1e-6
        assert total <= sum(s.capacity_mbps for s in subflows) + 1e-6
        for prefix, amount in allocation.items():
            subflow = next(s for s in subflows if s.prefix == prefix)
            assert amount <= subflow.capacity_mbps + 1e-9

    @given(subflows_strategy, st.floats(min_value=0.1, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_failing_a_subflow_never_increases_delivery(self, subflows, demand):
        connection = MultipathConnection(subflows)
        before = connection.delivered_fraction(demand)
        for subflow in subflows:
            after = connection.fail_subflow(subflow.prefix).delivered_fraction(demand)
            assert after <= before + 1e-9


packet_strategy = st.builds(
    Packet,
    src_ip=st.from_regex(r"10\.[0-9]{1,2}\.[0-9]{1,2}\.[0-9]{1,2}", fullmatch=True),
    dst_ip=st.just("1.1.1.1"),
    src_port=st.integers(min_value=1, max_value=65535),
    dst_port=st.integers(min_value=1, max_value=65535),
    proto=st.sampled_from(["tcp", "udp"]),
    payload_bytes=st.integers(min_value=1, max_value=9000),
)


class TestTunnelProperties:
    @given(packet_strategy)
    @settings(max_examples=60, deadline=None)
    def test_encap_decap_roundtrip(self, packet):
        outer = encapsulate(packet, edge_ip="203.0.113.1", tunnel_dst_ip="184.164.224.1")
        assert decapsulate(outer) == packet
        assert outer.wire_bytes > packet.payload_bytes

    @given(st.lists(packet_strategy, min_size=1, max_size=20, unique_by=lambda p: (p.src_ip, p.src_port)))
    @settings(max_examples=30, deadline=None)
    def test_nat_journey_restores_every_client(self, packets):
        nat = TMPoPNat(nat_ips=["100.64.0.1"])
        for packet in packets:
            tunneled = encapsulate(packet, "203.0.113.1", "184.164.224.1")
            toward = nat.ingress(tunneled)
            reply = Packet(
                src_ip=packet.dst_ip,
                dst_ip=toward.src_ip,
                src_port=packet.dst_port,
                dst_port=toward.src_port,
                proto=packet.proto,
                payload_bytes=1,
            )
            final = decapsulate(nat.egress(reply))
            assert final.dst_ip == packet.src_ip
            assert final.dst_port == packet.src_port
