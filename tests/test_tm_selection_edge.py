"""Destination selection (hysteresis) and TM-Edge/TM-PoP behavior."""

import json
import math

import pytest

from repro.topology.geo import metro_by_name
from repro.traffic_manager.dataplane import FlowBatch, VectorFlowTable
from repro.traffic_manager.flows import FiveTuple
from repro.traffic_manager.selection import LowestLatencySelector
from repro.traffic_manager.tm_edge import TMEdge
from repro.traffic_manager.tm_pop import PrefixDirectory, TMPoP
from repro.traffic_manager.tunnel import TMPoPNat
from repro.topology.cloud import PoP
from tests.test_tm_dataplane import ScalarReference


class TestSelector:
    def test_first_update_selects_best(self):
        selector = LowestLatencySelector()
        assert selector.update({"a": 30.0, "b": 20.0}) == "b"

    def test_hysteresis_resists_small_improvements(self):
        selector = LowestLatencySelector()
        selector.update({"a": 20.0, "b": 30.0})
        for _ in range(10):
            assert selector.update({"a": 20.0, "b": 19.5}) == "a"

    def test_switch_after_stable_rounds(self):
        selector = LowestLatencySelector()
        selector.update({"a": 20.0, "b": 30.0})
        assert selector.update({"a": 20.0, "b": 10.0}) == "a"
        assert selector.update({"a": 20.0, "b": 10.0}) == "a"
        assert selector.update({"a": 20.0, "b": 10.0}) == "b"
        assert selector.switch_count == 1

    def test_challenger_streak_resets(self):
        selector = LowestLatencySelector()
        selector.update({"a": 20.0, "b": 30.0})
        selector.update({"a": 20.0, "b": 10.0})
        selector.update({"a": 20.0, "b": 21.0})  # streak broken
        selector.update({"a": 20.0, "b": 10.0})
        assert selector.update({"a": 20.0, "b": 10.0}) == "a"  # only 2 in a row

    def test_dead_destination_switches_immediately(self):
        selector = LowestLatencySelector()
        selector.update({"a": 20.0, "b": 30.0})
        assert selector.update({"a": math.inf, "b": 30.0}) == "b"
        assert selector.switch_count == 1

    def test_all_dead_returns_none(self):
        selector = LowestLatencySelector()
        selector.update({"a": 20.0})
        assert selector.update({"a": math.inf}) is None

    def test_no_oscillation_between_equals(self):
        selector = LowestLatencySelector()
        first = selector.update({"a": 20.0, "b": 20.0})
        for _ in range(20):
            assert selector.update({"a": 20.0, "b": 20.0}) == first
        assert selector.switch_count == 0


@pytest.fixture()
def directory():
    directory = PrefixDirectory()
    pop_a = PoP(name="pop-a", metro=metro_by_name("new-york"))
    pop_b = PoP(name="pop-b", metro=metro_by_name("london"))
    tm_a = TMPoP(name="tm-a", pop=pop_a, nat=TMPoPNat(["100.64.0.1"]))
    tm_b = TMPoP(name="tm-b", pop=pop_b, nat=TMPoPNat(["100.64.1.1"]))
    tm_a.add_service("teams")
    tm_b.add_service("teams")
    tm_b.add_service("sql")
    tm_a.attach_prefix("184.164.224.0/24")
    tm_a.attach_prefix("184.164.225.0/24")
    tm_b.attach_prefix("184.164.226.0/24")
    directory.register(tm_a)
    directory.register(tm_b)
    return directory


class TestDirectory:
    def test_duplicate_registration_rejected(self, directory):
        with pytest.raises(ValueError):
            directory.register(directory.get("tm-a"))

    def test_prefixes_for_service(self, directory):
        assert directory.prefixes_for_service("teams") == frozenset(
            {"184.164.224.0/24", "184.164.225.0/24", "184.164.226.0/24"}
        )
        assert directory.prefixes_for_service("sql") == frozenset({"184.164.226.0/24"})
        assert directory.prefixes_for_service("nothing") == frozenset()

    def test_pop_for_prefix(self, directory):
        assert directory.pop_for_prefix("184.164.224.0/24").name == "tm-a"
        assert directory.pop_for_prefix("10.0.0.0/24") is None

    def test_unknown_pop_raises(self, directory):
        with pytest.raises(KeyError):
            directory.get("tm-x")


class TestTMEdge:
    def test_resolution_builds_tunnel_map(self, directory):
        edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
        prefixes = edge.resolve_service("teams")
        assert len(prefixes) == 3
        assert edge.to_snapshot()["tunnels"]["teams"]["184.164.226.0/24"][0] == "tm-b"

    def test_prefix_withdrawal_drops_tunnel(self, directory):
        edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
        edge.resolve_service("teams")
        directory.get("tm-a").ingress_prefixes.discard("184.164.224.0/24")
        prefixes = edge.resolve_service("teams")
        assert "184.164.224.0/24" not in prefixes

    def test_measurement_drives_selection(self, directory):
        edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
        edge.resolve_service("teams")
        selected = edge.record_measurements(
            "teams",
            {"184.164.224.0/24": 20.0, "184.164.225.0/24": 35.0, "184.164.226.0/24": 50.0},
        )
        assert selected == "184.164.224.0/24"

    def test_measurement_before_resolution_raises(self, directory):
        edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
        with pytest.raises(KeyError):
            edge.record_measurements("teams", {})

    def test_new_flows_pinned_to_best(self, directory):
        edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
        edge.resolve_service("teams")
        edge.record_measurements("teams", {"184.164.224.0/24": 20.0, "184.164.226.0/24": 40.0})
        flow = FiveTuple(proto="tcp", src_ip="10.1.1.1", src_port=1111, dst_ip="1.1.1.1", dst_port=443)
        assert edge.admit_flow("teams", flow, now_s=0.0) == "184.164.224.0/24"

    def test_existing_flow_sticks_after_switch(self, directory):
        """Flow mappings are immutable even when the selection changes."""
        edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
        edge.resolve_service("teams")
        edge.record_measurements("teams", {"184.164.224.0/24": 20.0, "184.164.226.0/24": 40.0})
        flow = FiveTuple(proto="tcp", src_ip="10.1.1.1", src_port=1111, dst_ip="1.1.1.1", dst_port=443)
        edge.admit_flow("teams", flow, now_s=0.0)
        # The selected tunnel dies; new selection is tm-b's prefix.
        edge.record_measurements("teams", {"184.164.224.0/24": math.inf, "184.164.226.0/24": 40.0})
        new_flow = FiveTuple(proto="tcp", src_ip="10.1.1.1", src_port=2222, dst_ip="1.1.1.1", dst_port=443)
        assert edge.admit_flow("teams", new_flow, now_s=1.0) == "184.164.226.0/24"
        assert edge.admit_flow("teams", flow, now_s=1.0) == "184.164.224.0/24"
        assert edge.data_plane.destinations() == {
            "184.164.224.0/24": 1, "184.164.226.0/24": 1,
        }

    def test_forward_encapsulates_toward_pinned_destination(self, directory):
        from repro.traffic_manager.tunnel import Packet

        edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
        edge.resolve_service("teams")
        edge.record_measurements("teams", {"184.164.225.0/24": 12.0})
        flow = FiveTuple(proto="udp", src_ip="10.1.1.1", src_port=3333, dst_ip="1.1.1.1", dst_port=3478)
        packet = Packet(
            src_ip="10.1.1.1", dst_ip="1.1.1.1", src_port=3333, dst_port=3478,
            proto="udp", payload_bytes=1200,
        )
        outer = edge.forward("teams", packet, flow, now_s=0.0)
        assert outer.is_encapsulated
        assert outer.dst_ip == "184.164.225.1"
        assert edge.data_plane.bytes_by_destination() == {"184.164.225.0/24": 1200}

    def test_admit_without_live_destination_raises(self, directory):
        edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
        edge.resolve_service("sql")
        flow = FiveTuple(proto="tcp", src_ip="10.1.1.1", src_port=1111, dst_ip="1.1.1.1", dst_port=1433)
        with pytest.raises(RuntimeError):
            edge.admit_flow("sql", flow, now_s=0.0)


class TestSelectorBank:
    def test_independent_selectors_per_service(self):
        from repro.traffic_manager.selection import SelectorBank

        bank = SelectorBank()
        results = bank.update_matrix(["a", "b"], [[10.0, 20.0], [30.0, 5.0]])
        assert results == {0: "a", 1: "b"}
        assert bank.selector(0).current == "a"
        assert bank.selector(1).current == "b"

    def test_snapshot_round_trip(self):
        from repro.traffic_manager.selection import SelectorBank

        bank = SelectorBank()
        bank.update_matrix(["a", "b"], [[10.0, 20.0], [30.0, 5.0]])
        restored = SelectorBank.from_snapshot(bank.to_snapshot())
        assert restored.to_snapshot() == bank.to_snapshot()
        assert restored.selector(1).current == "b"


class TestTMEdgeBatched:
    def test_forward_batch_pins_by_service_selection(self, directory):
        from repro.traffic_manager.dataplane import FlowBatch, VectorFlowTable

        edge = TMEdge(
            edge_ip="203.0.113.1", directory=directory, data_plane=VectorFlowTable()
        )
        edge.resolve_service("teams")
        edge.record_measurements(
            "teams", {"184.164.224.0/24": 10.0, "184.164.226.0/24": 40.0}
        )
        sid = edge.service_id("teams")
        batch = FlowBatch.synthesize(1000, seed=1)
        batch = FlowBatch(
            keys=batch.keys,
            service_ids=batch.service_ids + sid,
            payload_bytes=batch.payload_bytes,
        )
        result = edge.forward_batch(batch, now_s=0.0)
        assert result.admitted == 1000
        assert edge.data_plane.destinations() == {"184.164.224.0/24": 1000}

    def test_remap_on_failover_moves_batch_flows(self, directory):
        from repro.traffic_manager.dataplane import FlowBatch, VectorFlowTable

        edge = TMEdge(
            edge_ip="203.0.113.1",
            directory=directory,
            data_plane=VectorFlowTable(),
            remap_on_failover=True,
        )
        edge.resolve_service("teams")
        edge.record_measurements(
            "teams", {"184.164.224.0/24": 10.0, "184.164.226.0/24": 40.0}
        )
        edge.forward_batch(FlowBatch.synthesize(500, seed=2), now_s=0.0)
        # The pinned tunnel dies: flows move to the surviving prefix.
        edge.record_measurements("teams", {"184.164.224.0/24": math.inf})
        assert edge.flows_remapped == 500
        assert edge.data_plane.destinations() == {"184.164.226.0/24": 500}

    def test_edge_snapshot_round_trip(self, directory):
        from repro.traffic_manager.dataplane import FlowBatch, VectorFlowTable
        from repro.traffic_manager.tm_edge import TMEdge as EdgeCls

        edge = TMEdge(
            edge_ip="203.0.113.1", directory=directory, data_plane=VectorFlowTable()
        )
        edge.resolve_service("teams")
        edge.record_measurements(
            "teams", {"184.164.224.0/24": 10.0, "184.164.226.0/24": 40.0}
        )
        edge.forward_batch(FlowBatch.synthesize(200, seed=3), now_s=0.0)
        snapshot = edge.to_snapshot()
        restored = EdgeCls.from_snapshot(snapshot, directory)
        assert restored.selected_prefix("teams") == edge.selected_prefix("teams")
        assert restored.data_plane.destinations() == edge.data_plane.destinations()
        assert restored.to_snapshot()["tunnels"] == snapshot["tunnels"]
        # Restored edge steers a fresh batch exactly like the original.
        more = FlowBatch.synthesize(50, seed=4)
        a = edge.forward_batch(more, now_s=1.0)
        b = restored.forward_batch(more, now_s=1.0)
        assert (a.admitted, a.unroutable) == (b.admitted, b.unroutable)

    def test_edge_snapshot_version_checked(self, directory):
        edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
        snapshot = edge.to_snapshot()
        snapshot["version"] = 0
        with pytest.raises(ValueError, match="unsupported snapshot version"):
            TMEdge.from_snapshot(snapshot, directory)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda s: s.pop("data_plane"),
            lambda s: s.pop("edge_ip"),
            lambda s: s.update(data_plane=[1]),
            lambda s: s.update(tunnels=[1]),
            lambda s: s.update(selectors=[1]),
            lambda s: s.update(selectors={"teams": 5}),
            lambda s: s["selectors"]["teams"].update(current=5),
            lambda s: s["selectors"]["teams"].update(challenger=["a"]),
        ],
        ids=[
            "no-data-plane", "no-edge-ip", "data-plane-list", "tunnels-list",
            "selectors-list", "selector-int", "current-int", "challenger-list",
        ],
    )
    def test_malformed_edge_snapshot_rejected(self, directory, tamper):
        """A malformed TM-Edge snapshot raises ValueError, not whatever
        a lookup on the wrong type happens to raise."""
        edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
        edge.resolve_service("teams")
        edge.record_measurements("teams", {"184.164.224.0/24": 10.0})
        snapshot = json.loads(json.dumps(edge.to_snapshot()))
        tamper(snapshot)
        with pytest.raises(ValueError):
            TMEdge.from_snapshot(snapshot, directory)

    def test_edge_snapshot_of_a_scalar_plane_rejected(self, directory):
        """A TM-Edge snapshot carrying the retired per-flow ``scalar``
        plane encoding fails closed instead of restoring an empty plane."""
        edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
        snapshot = edge.to_snapshot()
        snapshot["data_plane"] = {
            "version": snapshot["version"], "kind": "scalar",
            "prefixes": ["184.164.224.0/24"], "flows": {7: [0, 0, 5, 0.0, 0.0]},
        }
        with pytest.raises(ValueError, match="kind 'scalar'"):
            TMEdge.from_snapshot(snapshot, directory)

    def test_scalar_default_plane_shares_flow_table(self, directory):
        """The default plane is the vector one, and it is the edge's one
        flow store for both surfaces."""
        edge = TMEdge(edge_ip="203.0.113.1", directory=directory)
        assert isinstance(edge.data_plane, VectorFlowTable)
        edge.resolve_service("teams")
        edge.record_measurements("teams", {"184.164.224.0/24": 10.0})
        sid = edge.service_id("teams")
        flows = [flow(port) for port in range(1000, 1010)]
        edge.forward_batch(
            FlowBatch.from_flows([(ft, sid, 0.0) for ft in flows]), now_s=0.0
        )
        # Batched admissions land in the same store the per-flow API uses.
        for ft in flows:
            assert edge.admit_flow("teams", ft, now_s=1.0) == "184.164.224.0/24"
        assert edge.data_plane.flow_count() == 10


def flow(port=1111):
    return FiveTuple(
        proto="tcp", src_ip="10.1.1.1", src_port=port, dst_ip="1.1.1.1", dst_port=443
    )


DEAD, ALIVE = "184.164.224.0/24", "184.164.226.0/24"


@pytest.mark.parametrize(
    "make_plane", [ScalarReference, VectorFlowTable], ids=["scalar", "vector"]
)
class TestOneFlowStore:
    """Per-flow and batched calls on a TM-Edge reach the same flow entries,
    whichever plane backs it."""

    def edge(self, directory, make_plane, **kwargs):
        edge = TMEdge(
            edge_ip="203.0.113.1", directory=directory,
            data_plane=make_plane(), **kwargs,
        )
        edge.resolve_service("teams")
        edge.record_measurements("teams", {DEAD: 10.0, ALIVE: 40.0})
        return edge

    def test_batch_then_admit_flow_is_one_pin(self, directory, make_plane):
        edge = self.edge(directory, make_plane)
        sid = edge.service_id("teams")
        edge.forward_batch(FlowBatch.from_flows([(flow(), sid, 100.0)]), now_s=0.0)
        # The selection switches; the batched flow keeps its pin.
        edge.record_measurements("teams", {DEAD: math.inf, ALIVE: 40.0})
        assert edge.selected_prefix("teams") == ALIVE
        assert edge.admit_flow("teams", flow(), now_s=1.0) == DEAD
        assert edge.data_plane.destinations() == {DEAD: 1}

    def test_per_flow_flow_moves_on_failover(self, directory, make_plane):
        edge = self.edge(directory, make_plane, remap_on_failover=True)
        assert edge.admit_flow("teams", flow(), now_s=0.0) == DEAD
        edge.record_measurements("teams", {DEAD: math.inf})
        assert edge.flows_remapped == 1
        assert edge.data_plane.destinations() == {ALIVE: 1}
        assert edge.admit_flow("teams", flow(), now_s=1.0) == ALIVE

    def test_per_flow_flow_survives_snapshot(self, directory, make_plane):
        from repro.traffic_manager.tunnel import Packet

        edge = self.edge(directory, make_plane)
        packet = Packet(
            src_ip="10.1.1.1", dst_ip="1.1.1.1", src_port=1111, dst_port=443,
            proto="tcp", payload_bytes=700,
        )
        edge.forward("teams", packet, flow(), now_s=0.0)
        snapshot = json.loads(json.dumps(edge.to_snapshot()))
        restored = TMEdge.from_snapshot(snapshot, directory)
        assert restored.data_plane.flow_count() == 1
        assert restored.data_plane.bytes_by_destination() == {DEAD: 700}
        # Still pinned after the selection moves on the restored edge.
        restored.record_measurements("teams", {DEAD: math.inf, ALIVE: 40.0})
        assert restored.admit_flow("teams", flow(), now_s=1.0) == DEAD
