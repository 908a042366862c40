"""Batched data plane: scalar/vector equivalence, snapshots, batch checks.

The vectorized :class:`VectorFlowTable` must be *bit-identical* to the
scalar reference on every observable: which prefix each flow is pinned to,
per-destination flow counts and byte totals, and what failover re-mapping
moves.  The property tests drive both planes through the same randomized
batch sequences to enforce that.

The reference, :class:`ScalarReference`, lives here and only here: every
other test module that runs a scalar-vs-vector differential imports it
from this module.
"""

import base64
import math
from collections import Counter
from typing import Any, Dict, List, Mapping, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.telemetry import METRICS
from repro.traffic_manager import dataplane
from repro.traffic_manager.dataplane import (
    FlowBatch,
    ForwardResult,
    TM_SNAPSHOT_VERSION,
    VectorFlowTable,
    flow_key,
)
from repro.traffic_manager.flows import FiveTuple


#: Positions in a :class:`ScalarReference` flow record
#: ``[service, prefix id, bytes, created, last seen]``.
_PREFIX, _BYTES, _LAST_SEEN = 1, 2, 4


class ScalarReference:
    """The reference data plane: one dict probe per flow.

    Flows live in a plain dict keyed by the integer flow key, each holding
    a ``[service, prefix id, bytes, created, last seen]`` record — the same
    columns :class:`VectorFlowTable` keeps as arrays.  Batches are replayed
    flow by flow, making this the semantic oracle the vectorized plane is
    property-tested against.  It interns prefixes and bumps the ``tm.*``
    counters exactly as the vector plane does, so both can be compared on
    ids and telemetry too, and :meth:`to_packed_snapshot` writes its flows
    in the vector plane's encoding, so the two compare byte for byte.
    """

    def __init__(self) -> None:
        self._prefix_names: List[str] = []
        self._prefix_index: Dict[str, int] = {}
        self._c_admitted = METRICS.counter("tm.flows_admitted")
        self._c_existing = METRICS.counter("tm.flows_existing")
        self._c_unroutable = METRICS.counter("tm.flows_unroutable")
        self._c_remapped = METRICS.counter("tm.flows_remapped")
        self._c_ended = METRICS.counter("tm.flows_ended")
        self._c_batches = METRICS.counter("tm.batches")
        self._h_batch = METRICS.histogram("tm.batch_flows")
        self._entries: Dict[int, List[Any]] = {}

    def prefix_id(self, prefix: str) -> int:
        pid = self._prefix_index.get(prefix)
        if pid is None:
            pid = len(self._prefix_names)
            self._prefix_names.append(prefix)
            self._prefix_index[prefix] = pid
        return pid

    def prefix_name(self, prefix_id: int) -> str:
        try:
            return self._prefix_names[prefix_id]
        except IndexError:
            raise KeyError(f"unknown prefix id {prefix_id}") from None

    def _selection_ids(
        self, selections: Mapping[int, Optional[str]]
    ) -> Dict[int, int]:
        """Interned per-service selections; sorted so both planes intern
        prefixes in the same order on identical inputs."""
        out: Dict[int, int] = {}
        for sid in sorted(selections):
            prefix = selections[sid]
            if prefix is not None:
                out[int(sid)] = self.prefix_id(prefix)
        return out

    def forward(
        self,
        batch: FlowBatch,
        selections: Mapping[int, Optional[str]],
        now_s: float,
    ) -> ForwardResult:
        return self._forward(batch, selections, now_s, record_bytes=True)

    def admit(
        self,
        batch: FlowBatch,
        selections: Mapping[int, Optional[str]],
        now_s: float,
    ) -> ForwardResult:
        return self._forward(batch, selections, now_s, record_bytes=False)

    def _forward(
        self,
        batch: FlowBatch,
        selections: Mapping[int, Optional[str]],
        now_s: float,
        record_bytes: bool,
    ) -> ForwardResult:
        sel = self._selection_ids(selections)
        entries = self._entries
        out = np.full(len(batch), -1, dtype=np.int32)
        admitted = existing = unroutable = 0
        bytes_recorded = 0.0
        dropped: set = set()
        for i, (key, sid, nbytes) in enumerate(
            zip(
                batch.keys.tolist(),
                batch.service_ids.tolist(),
                batch.payload_bytes.tolist(),
            )
        ):
            entry = entries.get(key)
            if entry is None:
                if key in dropped:
                    unroutable += 1
                    continue
                pid = sel.get(sid, -1)
                if pid < 0:
                    dropped.add(key)
                    unroutable += 1
                    continue
                # Only a key not yet in the table is ever pinned: the
                # mapping is immutable for the flow's lifetime (§3.2).
                entry = entries[key] = [sid, pid, 0, now_s, now_s]
                admitted += 1
            else:
                existing += 1
            if record_bytes:
                entry[_BYTES] += int(nbytes)
                bytes_recorded += int(nbytes)
            entry[_LAST_SEEN] = now_s
            out[i] = entry[_PREFIX]
        self._c_admitted.add(admitted)
        self._c_existing.add(existing)
        self._c_unroutable.add(unroutable)
        self._c_batches.add()
        self._h_batch.observe(len(batch))
        return ForwardResult(
            assignments=out,
            admitted=admitted,
            existing=existing,
            unroutable=unroutable,
            bytes_recorded=bytes_recorded,
        )

    def remap(self, from_prefix: str, to_prefix: str) -> int:
        from_id = self.prefix_id(from_prefix)
        to_id = self.prefix_id(to_prefix)
        if from_id == to_id:
            return 0
        moved = 0
        for entry in self._entries.values():
            if entry[_PREFIX] == from_id:
                entry[_PREFIX] = to_id
                moved += 1
        self._c_remapped.add(moved)
        return moved

    def end(self, keys: np.ndarray) -> int:
        # An unknown key is normal operation (a FIN retransmit, a flow never
        # admitted because its service had no destination): tolerated.
        entries = self._entries
        ended = 0
        for key in np.asarray(keys, dtype=np.uint64).tolist():
            if entries.pop(key, None) is not None:
                ended += 1
        self._c_ended.add(ended)
        return ended

    def flow_count(self) -> int:
        return len(self._entries)

    def destinations(self) -> Dict[str, int]:
        counts = Counter(entry[_PREFIX] for entry in self._entries.values())
        return {self._prefix_names[pid]: n for pid, n in sorted(counts.items())}

    def bytes_by_destination(self) -> Dict[str, float]:
        totals: Dict[int, float] = {}
        for entry in self._entries.values():
            pid = entry[_PREFIX]
            totals[pid] = totals.get(pid, 0.0) + entry[_BYTES]
        return {self._prefix_names[pid]: t for pid, t in sorted(totals.items())}

    def to_packed_snapshot(self) -> Dict[str, Any]:
        """The flows as :meth:`VectorFlowTable.to_packed_snapshot` packs
        them: one column per record field, in key order."""
        keys = sorted(self._entries)
        records = [self._entries[key] for key in keys]
        return packed_snapshot(
            self._prefix_names,
            keys=np.array(keys, dtype=np.uint64),
            **{
                name: np.array([record[i] for record in records], dtype=dtype)
                for i, (name, dtype) in enumerate(dataplane._COLUMNS[1:])
            },
        )

PREFIXES = ["184.164.224.0/24", "184.164.225.0/24", "184.164.226.0/24"]
#: A prefix no selection ever names, so no flow is ever pinned to it.
NEVER_PINNED = "184.164.227.0/24"


def make_selections(n_services: int, include_none: bool = True):
    """Deterministic service->prefix map cycling the prefix list."""
    selections = {}
    for sid in range(n_services):
        if include_none and sid % 4 == 3:
            selections[sid] = None
        else:
            selections[sid] = PREFIXES[sid % len(PREFIXES)]
    return selections


def assert_planes_agree(a, b):
    """Two planes (the reference, the vector plane, a restored copy) hold
    the same flows per destination, with the same bytes."""
    assert a.flow_count() == b.flow_count()
    assert a.destinations() == b.destinations()
    a_bytes, b_bytes = a.bytes_by_destination(), b.bytes_by_destination()
    assert a_bytes.keys() == b_bytes.keys()
    for prefix in a_bytes:
        assert a_bytes[prefix] == pytest.approx(b_bytes[prefix])


class TestFlowBatch:
    def test_synthesize_deterministic(self):
        a = FlowBatch.synthesize(1000, seed=7, n_services=3)
        b = FlowBatch.synthesize(1000, seed=7, n_services=3)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.service_ids, b.service_ids)
        assert np.array_equal(a.payload_bytes, b.payload_bytes)

    def test_zipf_weights_bias_service_mix(self):
        batch = FlowBatch.synthesize(
            20_000, seed=1, n_services=3, service_weights=[100.0, 10.0, 1.0]
        )
        counts = np.bincount(batch.service_ids, minlength=3)
        assert counts[0] > counts[1] > counts[2]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FlowBatch(
                keys=np.array([1, 2], dtype=np.uint64),
                service_ids=np.array([0], dtype=np.int32),
                payload_bytes=np.array([1.0, 2.0]),
            )

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            FlowBatch(
                keys=np.array([1], dtype=np.uint64),
                service_ids=np.array([0], dtype=np.int32),
                payload_bytes=np.array([-1.0]),
            )

    @pytest.mark.parametrize("nbytes", [math.nan, math.inf])
    def test_non_finite_bytes_rejected(self, nbytes):
        """Bytes a restore would refuse never enter a plane."""
        with pytest.raises(ValueError, match="finite"):
            FlowBatch(
                keys=np.array([1, 2], dtype=np.uint64),
                service_ids=np.array([0, 0], dtype=np.int32),
                payload_bytes=np.array([0.0, nbytes]),
            )

    def test_negative_service_id_rejected(self):
        """A negative id names no service; it would index the vector
        plane's selection array from the end, so the batch refuses it."""
        with pytest.raises(ValueError, match="service ids"):
            FlowBatch(
                keys=np.array([1], dtype=np.uint64),
                service_ids=np.array([-1], dtype=np.int32),
                payload_bytes=np.array([1.0]),
            )

    def test_from_flows_matches_flow_key(self):
        ft = FiveTuple(proto="tcp", src_ip="1.2.3.4", src_port=80, dst_ip="5.6.7.8", dst_port=443)
        batch = FlowBatch.from_flows([(ft, 2, 100.0)])
        assert batch.keys[0] == flow_key(ft)
        assert batch.service_ids[0] == 2
        assert batch.payload_bytes[0] == 100.0


class TestScalarVectorEquivalence:
    """The heart of the PR: both planes steer byte-for-byte identically."""

    @given(seed=st.integers(0, 2**16), n_flows=st.integers(1, 400))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_single_batch_identical(self, seed, n_flows):
        batch = FlowBatch.synthesize(n_flows, seed=seed, n_services=5)
        selections = make_selections(5)
        scalar, vector = ScalarReference(), VectorFlowTable()
        rs = scalar.forward(batch, selections, 0.0)
        rv = vector.forward(batch, selections, 0.0)
        assert np.array_equal(rs.assignments, rv.assignments)
        assert (rs.admitted, rs.existing, rs.unroutable) == (
            rv.admitted, rv.existing, rv.unroutable
        )
        assert rs.bytes_recorded == pytest.approx(rv.bytes_recorded)
        assert_planes_agree(scalar, vector)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_multi_step_with_failover_identical(self, seed):
        """Arrivals, repeats, a failover remap, and endings all agree."""
        rng = np.random.default_rng(seed)
        scalar, vector = ScalarReference(), VectorFlowTable()
        selections = make_selections(4)
        all_keys = []
        for step in range(4):
            batch = FlowBatch.synthesize(
                150, seed=seed * 31 + step, n_services=4
            )
            if all_keys and step >= 1:
                # Re-offer some previously seen keys: existing flows must
                # keep their pinned prefix and accumulate bytes.
                old = np.asarray(all_keys[0][: 40], dtype=np.uint64)
                batch = FlowBatch(
                    keys=np.concatenate([batch.keys, old]),
                    service_ids=np.concatenate(
                        [batch.service_ids, np.zeros(len(old), dtype=np.int32)]
                    ),
                    payload_bytes=np.concatenate(
                        [batch.payload_bytes, np.full(len(old), 99.0)]
                    ),
                )
            rs = scalar.forward(batch, selections, float(step))
            rv = vector.forward(batch, selections, float(step))
            assert np.array_equal(rs.assignments, rv.assignments)
            all_keys.append(batch.keys)
            if step == 2:
                # Failover: kill the first prefix, re-map onto the second.
                moved_s = scalar.remap(PREFIXES[0], PREFIXES[1])
                moved_v = vector.remap(PREFIXES[0], PREFIXES[1])
                assert moved_s == moved_v
                # Steer future flows of affected services elsewhere too.
                selections = {
                    sid: (PREFIXES[1] if prefix == PREFIXES[0] else prefix)
                    for sid, prefix in selections.items()
                }
        # End a subset (plus some unknown keys, which must be tolerated).
        victims = np.concatenate(
            [all_keys[0][:25], rng.integers(0, 2**64, 10, dtype=np.uint64)]
        )
        assert scalar.end(victims) == vector.end(victims)
        assert_planes_agree(scalar, vector)

    def test_duplicate_keys_in_one_batch(self):
        """First occurrence pins; repeats accumulate bytes on that pin."""
        keys = np.array([5, 5, 9, 5], dtype=np.uint64)
        sids = np.array([0, 1, 1, 2], dtype=np.int32)  # conflicting services
        nbytes = np.array([10.0, 20.0, 30.0, 40.0])
        batch = FlowBatch(keys=keys, service_ids=sids, payload_bytes=nbytes)
        selections = {0: PREFIXES[0], 1: PREFIXES[1], 2: PREFIXES[2]}
        scalar, vector = ScalarReference(), VectorFlowTable()
        rs = scalar.forward(batch, selections, 0.0)
        rv = vector.forward(batch, selections, 0.0)
        assert np.array_equal(rs.assignments, rv.assignments)
        assert_planes_agree(scalar, vector)
        # Key 5 was pinned by its first occurrence (service 0 -> prefix 0)
        # and accumulated all three of its payloads there.
        assert scalar.destinations() == {PREFIXES[0]: 1, PREFIXES[1]: 1}
        assert scalar.bytes_by_destination()[PREFIXES[0]] == pytest.approx(70.0)

    def test_unroutable_service_drops_whole_key(self):
        """A key first seen on a selection-less service stays dropped."""
        keys = np.array([7, 7], dtype=np.uint64)
        sids = np.array([0, 1], dtype=np.int32)
        batch = FlowBatch(
            keys=keys, service_ids=sids, payload_bytes=np.array([1.0, 2.0])
        )
        selections = {0: None, 1: PREFIXES[0]}
        scalar, vector = ScalarReference(), VectorFlowTable()
        rs = scalar.forward(batch, selections, 0.0)
        rv = vector.forward(batch, selections, 0.0)
        assert np.array_equal(rs.assignments, rv.assignments)
        assert rs.unroutable == rv.unroutable == 2
        assert scalar.flow_count() == vector.flow_count() == 0

    def test_remap_onto_itself_is_a_noop(self):
        """remap(p, p) moves nothing and leaves tm.flows_remapped alone."""
        from repro.telemetry import METRICS

        batch = FlowBatch.synthesize(50, seed=9, n_services=4)
        remapped = METRICS.counter("tm.flows_remapped")
        for plane in (ScalarReference(), VectorFlowTable()):
            plane.forward(batch, make_selections(4, include_none=False), 0.0)
            before = plane.destinations()
            count = remapped.value
            assert plane.remap(PREFIXES[0], PREFIXES[0]) == 0
            assert remapped.value == count
            assert plane.destinations() == before


class TestMixedOperationSequences:
    """Property tests: arbitrary op interleavings with telemetry live.

    Hypothesis drives both planes through mixed admit/record/remap/end/
    snapshot sequences while a telemetry session (tracer + metrics) is
    open — equivalence must hold at every step, and instrumentation must
    observe the work without perturbing it.
    """

    OPS = st.lists(
        st.tuples(
            st.sampled_from(["forward", "remap", "end", "snapshot"]),
            st.integers(0, 2**16),
        ),
        min_size=1,
        max_size=8,
    )

    @given(ops=OPS)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mixed_sequences_agree_with_metrics_enabled(self, ops):
        from repro.telemetry import METRICS
        from repro.telemetry import telemetry_session

        batches_before = METRICS.histogram("tm.batch_flows").count
        forwards = 0
        with telemetry_session("tm-prop"):
            scalar, vector = ScalarReference(), VectorFlowTable()
            selections = make_selections(4)
            seen_keys = []
            now = 0.0
            for op, seed in ops:
                now += 1.0
                if op == "forward":
                    batch = FlowBatch.synthesize(80, seed=seed, n_services=4)
                    if seen_keys and seed % 2:
                        old = seen_keys[-1][:20]
                        batch = FlowBatch(
                            keys=np.concatenate([batch.keys, old]),
                            service_ids=np.concatenate(
                                [batch.service_ids, np.zeros(len(old), dtype=np.int32)]
                            ),
                            payload_bytes=np.concatenate(
                                [batch.payload_bytes, np.full(len(old), 7.0)]
                            ),
                        )
                    rs = scalar.forward(batch, selections, now)
                    rv = vector.forward(batch, selections, now)
                    assert np.array_equal(rs.assignments, rv.assignments)
                    assert (rs.admitted, rs.existing, rs.unroutable) == (
                        rv.admitted, rv.existing, rv.unroutable
                    )
                    seen_keys.append(batch.keys)
                    forwards += 1
                elif op == "remap":
                    # Sources include a never-pinned prefix, and src == dst
                    # is drawn too: both must agree on moves and counters.
                    src = (PREFIXES + [NEVER_PINNED])[seed % 4]
                    dst = PREFIXES[(seed // 4) % len(PREFIXES)]
                    remapped = METRICS.counter("tm.flows_remapped")
                    before = remapped.value
                    moved_s = scalar.remap(src, dst)
                    between = remapped.value
                    moved_v = vector.remap(src, dst)
                    assert moved_s == moved_v
                    assert between - before == remapped.value - between == moved_s
                    if src == dst:
                        assert moved_s == 0
                elif op == "end":
                    if seen_keys:
                        victims = seen_keys[seed % len(seen_keys)][: (seed % 50) + 1]
                        assert scalar.end(victims) == vector.end(victims)
                else:
                    # Mid-sequence snapshot round-trip: the restored plane
                    # holds the reference's flows byte for byte and keeps
                    # steering identically.
                    vector = VectorFlowTable.from_packed_snapshot(
                        vector.to_packed_snapshot()
                    )
                    assert vector.to_packed_snapshot() == scalar.to_packed_snapshot()
                assert_planes_agree(scalar, vector)
        # Metrics saw every forwarded batch (both planes observe).
        assert (
            METRICS.histogram("tm.batch_flows").count
            == batches_before + 2 * forwards
        )

    def test_snapshot_restore_journal_resume_round_trip(self):
        """The journal keeps a coherent timeline across snapshot/restore."""
        from repro.telemetry import METRICS
        from repro.telemetry import telemetry_session

        selections = make_selections(3, include_none=False)
        with telemetry_session("tm-resume") as journal:
            vector = VectorFlowTable()
            vector.forward(
                FlowBatch.synthesize(300, seed=11, n_services=3), selections, 0.0
            )
            snapshot = vector.to_packed_snapshot()
            journal.record_event(
                "tm_snapshot", flows=vector.flow_count(),
                version=snapshot["version"],
            )
            restored = VectorFlowTable.from_packed_snapshot(snapshot)
            journal.record_event("tm_restore", flows=restored.flow_count())
            more = FlowBatch.synthesize(150, seed=12, n_services=3)
            a = vector.forward(more, selections, 1.0)
            b = restored.forward(more, selections, 1.0)
            assert np.array_equal(a.assignments, b.assignments)
        assert_planes_agree(vector, restored)
        # The journal resumed recording after the restore with monotone
        # seq numbers, and both lifecycle events are on the timeline.
        seqs = [r["seq"] for r in journal.records]
        assert seqs == sorted(seqs)
        (snap_event,) = journal.events("tm_snapshot")
        (restore_event,) = journal.events("tm_restore")
        assert snap_event["flows"] == restore_event["flows"]
        assert snap_event["seq"] < restore_event["seq"]

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_restored_planes_stay_equivalent(self, seed):
        """A vector plane restored from its snapshot keeps agreeing with
        the reference."""
        from repro.telemetry import telemetry_session

        selections = make_selections(4)
        with telemetry_session("tm-restore-prop"):
            scalar, vector = ScalarReference(), VectorFlowTable()
            first = FlowBatch.synthesize(200, seed=seed, n_services=4)
            scalar.forward(first, selections, 0.0)
            vector.forward(first, selections, 0.0)
            snapshot = vector.to_packed_snapshot()
            assert snapshot == scalar.to_packed_snapshot()
            vector = VectorFlowTable.from_packed_snapshot(snapshot)
            second = FlowBatch.synthesize(120, seed=seed + 1, n_services=4)
            rs = scalar.forward(second, selections, 1.0)
            rv = vector.forward(second, selections, 1.0)
            assert np.array_equal(rs.assignments, rv.assignments)
            moved_s = scalar.remap(PREFIXES[0], PREFIXES[2])
            moved_v = vector.remap(PREFIXES[0], PREFIXES[2])
            assert moved_s == moved_v
            assert_planes_agree(scalar, vector)
            assert vector.to_packed_snapshot() == scalar.to_packed_snapshot()


class TestSnapshots:
    def test_vector_round_trip(self):
        vector = VectorFlowTable()
        batch = FlowBatch.synthesize(500, seed=3, n_services=3)
        vector.forward(batch, make_selections(3), 1.5)
        snapshot = vector.to_packed_snapshot()
        assert snapshot["version"] == TM_SNAPSHOT_VERSION
        restored = VectorFlowTable.from_packed_snapshot(snapshot)
        assert_planes_agree(vector, restored)
        # The restored plane keeps steering identically.
        more = FlowBatch.synthesize(100, seed=4, n_services=3)
        a = vector.forward(more, make_selections(3), 2.0)
        b = restored.forward(more, make_selections(3), 2.0)
        assert np.array_equal(a.assignments, b.assignments)

    def test_unsupported_version_rejected(self):
        vector = VectorFlowTable()
        snapshot = vector.to_packed_snapshot()
        snapshot["version"] = 99
        with pytest.raises(ValueError, match="unsupported snapshot version"):
            VectorFlowTable.from_packed_snapshot(snapshot)

    def test_kind_mismatch_rejected(self):
        """Any kind but the packed one is refused, the retired per-flow
        ``scalar`` encoding included."""
        for kind in ("wibble", "scalar"):
            snapshot = VectorFlowTable().to_packed_snapshot()
            snapshot["kind"] = kind
            with pytest.raises(ValueError, match="kind"):
                VectorFlowTable.from_packed_snapshot(snapshot)

    def test_vector_has_one_encoding(self):
        """The packed encoding is canonical: one batch or many, with ends
        and re-admissions between them, the same live flows pack to the
        same snapshot."""
        selections = make_selections(2, include_none=False)
        batch = FlowBatch.synthesize(40, seed=6, n_services=2)
        whole = VectorFlowTable()
        whole.forward(batch, selections, 0.0)
        pieces = VectorFlowTable()
        for lo in range(0, 40, 7):
            pieces.forward(
                FlowBatch(batch.keys[lo:lo + 7], batch.service_ids[lo:lo + 7],
                          batch.payload_bytes[lo:lo + 7]),
                selections, 0.0,
            )
        assert len(pieces._runs) > 1
        snapshot = whole.to_packed_snapshot()
        assert snapshot["kind"] == "vector-packed"
        assert pieces.to_packed_snapshot() == snapshot


def packed_snapshot(prefixes, **columns):
    """A hand-built packed snapshot; columns not given are zeros as long
    as ``keys``."""
    n = len(columns["keys"])
    arrays = {
        "keys": None,
        "service": np.zeros(n, dtype=np.int32),
        "prefix": np.zeros(n, dtype=np.int32),
        "bytes": np.zeros(n),
        "created": np.zeros(n),
        "last_seen": np.zeros(n),
    }
    arrays.update(columns)
    return {
        "version": TM_SNAPSHOT_VERSION,
        "kind": "vector-packed",
        "prefixes": list(prefixes),
        "columns": {
            name: {
                "dtype": str(array.dtype),
                "b64": base64.b64encode(array.tobytes()).decode("ascii"),
            }
            for name, array in arrays.items()
        },
    }


#: (column, bad value, message) the packed restore rejects.
BAD_FLOW_VALUES = [
    ("bytes", math.nan, "bytes"),
    ("bytes", math.inf, "bytes"),
    ("bytes", -1.0, "bytes"),
    ("created", math.inf, "timestamp"),
    ("created", -math.inf, "timestamp"),
    ("last_seen", math.nan, "timestamp"),
    ("service", -1, "service id"),
]
BAD_FLOW_VALUE_IDS = ["nan-bytes", "inf-bytes", "negative-bytes", "inf-created",
                      "minus-inf-created", "nan-last-seen", "negative-service"]


def assert_run_invariants(vector: VectorFlowTable):
    """Each run is non-empty and strictly key-sorted, counts its own
    tombstones, and no key is live in two runs."""
    live = []
    for run in vector._runs:
        assert len(run.keys) > 0
        assert (run.keys[1:] > run.keys[:-1]).all()
        assert run.dead == int((run.prefix == -1).sum())
        live.append(run.keys[run.prefix != -1])
    if live:
        keys = np.concatenate(live)
        assert len(np.unique(keys)) == len(keys)


class TestTieredTable:
    """The vector plane's sorted runs, tombstones and canonical snapshot."""

    CHURN = st.lists(
        st.tuples(
            st.sampled_from(["bulk", "trickle", "end", "readmit", "remap"]),
            st.integers(0, 2**16),
        ),
        min_size=1,
        max_size=30,
    )

    @given(ops=CHURN)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_churn_agrees_with_scalar_and_packs_canonically(self, ops):
        """Many small batches (so many runs and merges), ends (tombstones)
        and re-admissions of ended keys agree with the scalar reference
        on every result; the packed snapshot is the reference's live flows
        in key order, whatever runs held them."""
        self._churn(ops)

    @given(ops=CHURN)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_churn_agrees_when_rewrites_span_many_key_ranges(self, ops):
        """The same differential with 7-row rewrite blocks, so every
        merge is cut into many key ranges."""
        with mock.patch.object(dataplane, "_REWRITE_BLOCK", 7):
            self._churn(ops)

    def _churn(self, ops):
        scalar, vector = ScalarReference(), VectorFlowTable()
        selections = make_selections(4)
        offered, ended = [], []
        for step, (op, seed) in enumerate(ops):
            if op == "end":
                if offered:
                    victims = offered[seed % len(offered)][: seed % 120 + 1]
                    assert scalar.end(victims) == vector.end(victims)
                    ended.append(victims)
            elif op == "remap":
                src, dst = PREFIXES[seed % 3], PREFIXES[(seed // 3) % 3]
                assert scalar.remap(src, dst) == vector.remap(src, dst)
            else:
                batch = FlowBatch.synthesize(
                    200 if op == "bulk" else 5, seed=seed, n_services=4
                )
                if op == "readmit" and ended:
                    back = ended[seed % len(ended)]
                    batch = FlowBatch(
                        keys=np.concatenate([back, batch.keys]),
                        service_ids=np.concatenate(
                            [np.full(len(back), seed % 4, dtype=np.int32), batch.service_ids]
                        ),
                        payload_bytes=np.concatenate(
                            [np.full(len(back), 5.0), batch.payload_bytes]
                        ),
                    )
                rs = scalar.forward(batch, selections, float(step))
                rv = vector.forward(batch, selections, float(step))
                assert np.array_equal(rs.assignments, rv.assignments)
                assert (rs.admitted, rs.existing, rs.unroutable, rs.bytes_recorded) == (
                    rv.admitted, rv.existing, rv.unroutable, rv.bytes_recorded
                )
                offered.append(batch.keys)
            assert_planes_agree(scalar, vector)
            assert_run_invariants(vector)
        snapshot = vector.to_packed_snapshot()
        assert snapshot == scalar.to_packed_snapshot()
        restored = VectorFlowTable.from_packed_snapshot(snapshot)
        assert restored.to_packed_snapshot() == snapshot

    def test_ended_key_readmits_under_the_current_selection(self):
        key = np.array([42], dtype=np.uint64)
        one = FlowBatch(
            keys=key, service_ids=np.array([0], dtype=np.int32),
            payload_bytes=np.array([10.0]),
        )
        for plane in (ScalarReference(), VectorFlowTable()):
            plane.forward(one, {0: PREFIXES[0]}, 0.0)
            assert plane.end(key) == 1
            assert plane.end(key) == 0
            result = plane.forward(one, {0: PREFIXES[1]}, 1.0)
            assert (result.admitted, result.existing) == (1, 0)
            assert plane.destinations() == {PREFIXES[1]: 1}
            assert plane.bytes_by_destination() == {PREFIXES[1]: 10.0}

    def test_small_batches_do_not_rewrite_the_table(self):
        """A trickle of small admits into a large table rewrites
        O(admitted · log admitted) rows, never the table; ending a few of
        the table's flows rewrites nothing."""
        from repro.telemetry import METRICS

        selections = make_selections(4, include_none=False)
        vector = VectorFlowTable()
        table = FlowBatch.synthesize(1 << 16, seed=1, n_services=4)
        vector.forward(table, selections, 0.0)
        rewritten = METRICS.counter("tm.rows_rewritten")
        before = rewritten.value
        batches = size = 64
        for seed in range(batches):
            vector.forward(
                FlowBatch.synthesize(size, seed=100 + seed, n_services=4), selections, 1.0
            )
        admitted = batches * size
        assert vector.flow_count() == len(table) + admitted
        assert 0 < rewritten.value - before <= admitted * math.log2(admitted)
        before = rewritten.value
        assert vector.end(table.keys[:100]) == 100
        assert rewritten.value == before

    def test_a_cascade_is_one_rewrite_of_its_live_rows(self):
        """A push that absorbs k older runs writes the merged live rows
        once, not once per absorbed run, and drops their tombstones."""
        from repro.telemetry import METRICS

        selections = {0: PREFIXES[0]}
        vector = VectorFlowTable()
        for seed, size in enumerate((64, 16, 4)):
            vector.forward(FlowBatch.synthesize(size, seed=seed), selections, 0.0)
        oldest = vector._runs[0].keys.copy()
        assert vector.end(oldest[:10]) == 10
        assert [(len(run.keys), run.dead) for run in vector._runs] == [
            (64, 10), (16, 0), (4, 0)
        ]
        rewritten = METRICS.counter("tm.rows_rewritten")
        before = rewritten.value
        vector.forward(FlowBatch.synthesize(40, seed=9), selections, 1.0)
        assert rewritten.value - before == 54 + 16 + 4 + 40
        assert [(len(run.keys), run.dead) for run in vector._runs] == [(114, 0)]
        assert_run_invariants(vector)

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"keys": np.array([3, 1, 2], dtype=np.uint64)}, "strictly increasing"),
            ({"keys": np.array([1, 1, 2], dtype=np.uint64)}, "strictly increasing"),
            ({"keys": np.array([1, 2], dtype=np.uint64),
              "prefix": np.array([0, 1], dtype=np.int32)}, "unknown prefix id"),
            ({"keys": np.array([1, 2], dtype=np.uint64),
              "prefix": np.array([0, -1], dtype=np.int32)}, "unknown prefix id"),
            ({"keys": np.array([1, 2], dtype=np.int64)}, "dtype"),
            ({"keys": np.array([1, 2], dtype=np.uint64),
              "bytes": np.zeros(3)}, "mismatched lengths"),
        ] + [
            ({"keys": np.array([1, 2], dtype=np.uint64),
              column: np.array([0, value], dtype=np.int32 if column == "service" else None)},
             message)
            for column, value, message in BAD_FLOW_VALUES
        ],
        ids=["unsorted", "repeated", "prefix-past-end", "negative-prefix",
             "key-dtype", "lengths"] + BAD_FLOW_VALUE_IDS,
    )
    def test_restore_rejects_malformed_columns(self, columns, message):
        with pytest.raises(ValueError, match=message):
            VectorFlowTable.from_packed_snapshot(packed_snapshot(["a/24"], **columns))

    def test_restores_accept_negative_finite_timestamps(self):
        """A clock may start before zero (a pre-filled table's flows)."""
        vector = VectorFlowTable()
        vector.forward(FlowBatch.synthesize(30, seed=2, n_services=2),
                       make_selections(2, include_none=False), -6.0)
        snapshot = vector.to_packed_snapshot()
        restored = VectorFlowTable.from_packed_snapshot(snapshot)
        assert restored.to_packed_snapshot() == snapshot

    def test_restore_rejects_missing_column(self):
        snapshot = packed_snapshot(["a/24"], keys=np.array([1], dtype=np.uint64))
        del snapshot["columns"]["bytes"]
        with pytest.raises(ValueError, match="no 'bytes' column"):
            VectorFlowTable.from_packed_snapshot(snapshot)

    @given(rows=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(-1, 2)), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_restore_accepts_exactly_the_canonical_layouts(self, rows):
        """Strictly increasing keys pinned to named prefixes restore and
        re-pack to the same bytes; anything else is a ValueError."""
        keys = [key for key, _pid in rows]
        pids = [pid for _key, pid in rows]
        snapshot = packed_snapshot(
            ["a/24", "b/24"],
            keys=np.array(keys, dtype=np.uint64),
            prefix=np.array(pids, dtype=np.int32),
        )
        canonical = all(a < b for a, b in zip(keys, keys[1:])) and all(
            0 <= pid < 2 for pid in pids
        )
        if not canonical:
            with pytest.raises(ValueError):
                VectorFlowTable.from_packed_snapshot(snapshot)
            return
        plane = VectorFlowTable.from_packed_snapshot(snapshot)
        assert plane.flow_count() == len(rows)
        assert plane.to_packed_snapshot() == snapshot

