"""Flows: 5-tuples, and the immutable-mapping rules of the flow store.

``TestFlowTable`` checks the per-flow rules (§3.2) on the data plane and
on the scalar reference kept in ``tests/test_tm_dataplane.py``, through
the plane API a TM-Edge uses.
"""

import numpy as np
import pytest

from repro.traffic_manager.dataplane import FlowBatch, VectorFlowTable, flow_key
from repro.traffic_manager.flows import FiveTuple
from tests.test_tm_dataplane import ScalarReference

A, B = "184.164.224.0/24", "184.164.225.0/24"


def ft(port=1234, dst="10.0.0.1"):
    return FiveTuple(proto="tcp", src_ip="192.168.1.2", src_port=port, dst_ip=dst, dst_port=443)


def planes():
    return [ScalarReference(), VectorFlowTable()]


def pin(plane, prefix, *ports, now_s=0.0, nbytes=0.0):
    """Offer one flow per port on service 0, selected onto ``prefix``;
    returns the prefix each flow is pinned to (None if dropped)."""
    batch = FlowBatch.from_flows([(ft(port=p), 0, nbytes) for p in ports])
    result = plane.forward(batch, {0: prefix}, now_s)
    return [plane.prefix_name(pid) if pid >= 0 else None for pid in result.assignments]


def keys(*ports):
    return np.array([flow_key(ft(port=p)) for p in ports], dtype=np.uint64)


class TestFiveTuple:
    def test_bad_protocol(self):
        with pytest.raises(ValueError):
            FiveTuple(proto="icmp", src_ip="1.1.1.1", src_port=1, dst_ip="2.2.2.2", dst_port=2)

    @pytest.mark.parametrize("port", [0, -1, 70000])
    def test_bad_port(self, port):
        with pytest.raises(ValueError):
            FiveTuple(proto="tcp", src_ip="1.1.1.1", src_port=port, dst_ip="2.2.2.2", dst_port=443)

    def test_hashable_identity(self):
        assert ft() == ft()
        assert hash(ft()) == hash(ft())
        assert ft(port=1) != ft(port=2)


class TestFlowTable:
    def test_map_and_lookup(self):
        for plane in planes():
            assert pin(plane, A, 1234, now_s=1.0) == [A]
            # Offering the flow again finds the same entry.
            result = plane.forward(FlowBatch.from_flows([(ft(), 0, 0.0)]), {0: A}, 2.0)
            assert (result.admitted, result.existing) == (0, 1)
            assert plane.flow_count() == 1

    def test_mapping_immutable(self):
        for plane in planes():
            pin(plane, A, 1234, now_s=1.0)
            # A re-pin is refused: the selection moved, the flow did not.
            assert pin(plane, B, 1234, now_s=2.0) == [A]
            assert plane.destinations() == {A: 1}

    def test_end_flow(self):
        for plane in planes():
            pin(plane, A, 1234, now_s=1.0)
            assert plane.end(keys(1234)) == 1
            assert plane.flow_count() == 0
            assert plane.destinations() == {}

    def test_end_unknown_flow_tolerated(self):
        # A FIN retransmit / never-admitted flow is normal, not an error.
        for plane in planes():
            assert plane.end(keys(1234)) == 0
            pin(plane, A, 1)
            assert plane.end(keys(1, 1, 2)) == 1

    def test_byte_accounting(self):
        for plane in planes():
            pin(plane, A, 1234, nbytes=100.0)
            pin(plane, A, 1234, nbytes=250.0)
            assert plane.bytes_by_destination() == {A: 350.0}
        with pytest.raises(ValueError):
            FlowBatch.from_flows([(ft(), 0, -1.0)])

    def test_destinations(self):
        for plane in planes():
            pin(plane, "a/24", 1, 2)
            pin(plane, "b/24", 3)
            assert plane.destinations() == {"a/24": 2, "b/24": 1}

    def test_remap_flows_keeps_destinations_consistent(self):
        for plane in planes():
            pin(plane, "a/24", 1, 2)
            pin(plane, "b/24", 3)
            assert plane.remap("a/24", "b/24") == 2
            assert plane.destinations() == {"b/24": 3}
            # The moved flows carry on under their new pin.
            assert pin(plane, "c/24", 1, 2, 3) == ["b/24"] * 3
            # Re-mapping a prefix with no flows (or onto itself) is a no-op.
            assert plane.remap("a/24", "b/24") == 0
            assert plane.remap("b/24", "b/24") == 0
            assert plane.remap("never/24", "b/24") == 0
            assert plane.destinations() == {"b/24": 3}
