"""Batched Traffic Manager data planes: scalar reference and vectorized.

The Traffic Manager steers each flow at 5-tuple granularity (§3.2), which
at the ROADMAP's "millions of users" scale means the per-flow state machine
must not cost one Python object and one dict lookup per flow.  This module
defines the batched data-plane contract and its two implementations:

* :class:`ScalarDataPlane` — the reference.  A plain dict from flow key to
  a per-flow record, replaying a batch one flow at a time.
* :class:`VectorFlowTable` — the production path.  A struct-of-arrays
  table (numpy columns for hashed 5-tuple, service id, selected prefix id,
  bytes, created/last-seen timestamps) kept sorted by flow key, so a batch
  of a million admissions is a handful of ``searchsorted``/``insert``
  array operations instead of a million dict probes.

Each plane is the one flow store of whatever owns it: a
:class:`~repro.traffic_manager.tm_edge.TMEdge` steers its per-flow and
batched calls through the same plane.  Both implement the same documented
batch semantics (see :class:`DataPlane`), so property tests can assert
bit-identical steering decisions, byte counters, and failover re-mappings
on identical inputs.

Batch semantics (binding for every implementation):

* flows are identified by a 64-bit key (:func:`flow_key` hashes a
  :class:`~repro.traffic_manager.flows.FiveTuple`; synthetic workloads
  draw keys directly);
* a key already in the table keeps its pinned prefix — mappings are
  immutable for the flow's lifetime (§3.2) — and only accumulates bytes;
* a new key is pinned to its service's currently-selected prefix at
  *first occurrence within the batch*; later occurrences in the same
  batch join that decision;
* a new key whose service has no live selection is dropped (unroutable)
  for the whole batch — every occurrence counts as unroutable;
* :meth:`~DataPlane.remap` implements RTT-timescale failover: every flow
  pinned to a dead prefix moves to the replacement in one operation;
  remapping a prefix onto itself moves nothing.

Batch counters/timers land in the shared :data:`repro.telemetry.METRICS`
registry under ``tm.*`` names.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry import METRICS
from repro.traffic_manager.flows import FiveTuple

try:  # Python 3.8+: typing.Protocol
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore

    def runtime_checkable(cls):  # type: ignore
        return cls


#: Version stamp of TM data-plane / TM-Edge snapshots (same versioned-dict
#: convention as :meth:`repro.core.routing_model.RoutingModel.snapshot_preferences`).
TM_SNAPSHOT_VERSION = 1


def flow_key(five_tuple: FiveTuple) -> int:
    """Deterministic 64-bit key for a transport 5-tuple.

    Python's builtin ``hash`` is salted per process; this must be stable
    across runs (snapshots carry keys) so it hashes the canonical text form.
    """
    text = (
        f"{five_tuple.proto}|{five_tuple.src_ip}|{five_tuple.src_port}"
        f"|{five_tuple.dst_ip}|{five_tuple.dst_port}"
    )
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"
    )


@dataclass(frozen=True)
class FlowBatch:
    """One struct-of-arrays batch of flow activity offered to a data plane.

    Columns (equal length): ``keys`` (uint64 hashed 5-tuples),
    ``service_ids`` (int32), ``payload_bytes`` (float64 bytes carried by
    this batch's packets per flow; zero for pure admissions).
    """

    keys: np.ndarray
    service_ids: np.ndarray
    payload_bytes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "keys", np.ascontiguousarray(self.keys, dtype=np.uint64)
        )
        object.__setattr__(
            self,
            "service_ids",
            np.ascontiguousarray(self.service_ids, dtype=np.int32),
        )
        object.__setattr__(
            self,
            "payload_bytes",
            np.ascontiguousarray(self.payload_bytes, dtype=np.float64),
        )
        if not (
            len(self.keys) == len(self.service_ids) == len(self.payload_bytes)
        ):
            raise ValueError("FlowBatch columns must have equal length")
        if len(self.payload_bytes) and float(self.payload_bytes.min()) < 0:
            raise ValueError("payload bytes must be non-negative")

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def from_flows(
        cls,
        flows: Sequence[Tuple[FiveTuple, int, float]],
    ) -> "FlowBatch":
        """Build a batch from ``(five_tuple, service_id, bytes)`` triples."""
        keys = np.fromiter(
            (flow_key(ft) for ft, _sid, _b in flows),
            dtype=np.uint64,
            count=len(flows),
        )
        sids = np.fromiter(
            (sid for _ft, sid, _b in flows), dtype=np.int32, count=len(flows)
        )
        nbytes = np.fromiter(
            (b for _ft, _sid, b in flows), dtype=np.float64, count=len(flows)
        )
        return cls(keys=keys, service_ids=sids, payload_bytes=nbytes)

    @classmethod
    def synthesize(
        cls,
        n_flows: int,
        seed: int = 0,
        n_services: int = 1,
        service_weights: Optional[Sequence[float]] = None,
        mean_bytes: float = 1500.0,
    ) -> "FlowBatch":
        """A reproducible synthetic arrival batch (Zipf-able service mix).

        ``service_weights`` (e.g. UG traffic volumes) biases which service
        each flow belongs to; uniform when omitted.  Keys are drawn from the
        full 64-bit space — at a million flows the birthday collision odds
        are ~3e-8, and a collision merely merges two synthetic flows.
        """
        if n_flows < 0:
            raise ValueError("n_flows must be non-negative")
        if n_services < 1:
            raise ValueError("need at least one service")
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 2**64, size=n_flows, dtype=np.uint64)
        if service_weights is not None:
            weights = np.asarray(service_weights, dtype=np.float64)
            if len(weights) != n_services:
                raise ValueError("service_weights length must equal n_services")
            weights = weights / weights.sum()
            sids = rng.choice(n_services, size=n_flows, p=weights).astype(np.int32)
        else:
            sids = rng.integers(0, n_services, size=n_flows, dtype=np.int32)
        nbytes = rng.exponential(mean_bytes, size=n_flows)
        return cls(keys=keys, service_ids=sids, payload_bytes=nbytes)


@dataclass(frozen=True)
class ForwardResult:
    """Outcome of one batched :meth:`DataPlane.forward` call.

    ``assignments`` holds, per input flow, the interned id of the prefix
    the flow is pinned to (``-1`` if dropped as unroutable); translate with
    :meth:`DataPlane.prefix_name`.
    """

    assignments: np.ndarray
    admitted: int
    existing: int
    unroutable: int
    bytes_recorded: float


@runtime_checkable
class DataPlane(Protocol):
    """The batched flow-steering contract both implementations honor."""

    def prefix_id(self, prefix: str) -> int:
        """Intern a destination prefix; stable id for the plane's lifetime."""
        ...

    def prefix_name(self, prefix_id: int) -> str:
        """Inverse of :meth:`prefix_id`."""
        ...

    def forward(
        self,
        batch: FlowBatch,
        selections: Mapping[int, Optional[str]],
        now_s: float,
    ) -> ForwardResult:
        """Admit-if-new, pin, and account bytes for a batch of flows."""
        ...

    def admit(
        self,
        batch: FlowBatch,
        selections: Mapping[int, Optional[str]],
        now_s: float,
    ) -> ForwardResult:
        """Pin new flows only (no byte accounting)."""
        ...

    def remap(self, from_prefix: str, to_prefix: str) -> int:
        """Failover: move every flow pinned to one prefix onto another."""
        ...

    def end(self, keys: np.ndarray) -> int:
        """Remove flows by key; unknown keys are tolerated.  Returns count."""
        ...

    def flow_count(self) -> int:
        """Live flows in the table."""
        ...

    def destinations(self) -> Dict[str, int]:
        """Live-flow count per destination prefix."""
        ...

    def bytes_by_destination(self) -> Dict[str, float]:
        """Accumulated bytes per destination prefix (live flows)."""
        ...

    def to_snapshot(self) -> Dict[str, Any]:
        """Versioned plain-data state (see ``TM_SNAPSHOT_VERSION``)."""
        ...


class _PlaneBase:
    """What both planes share: prefix-string interning (id order is
    operation order) and the ``tm.*`` counters, acquired once per plane."""

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


#: Positions in a :class:`ScalarDataPlane` flow record
#: ``[service, prefix id, bytes, created, last seen]``.
_PREFIX, _BYTES, _LAST_SEEN = 1, 2, 4


class ScalarDataPlane(_PlaneBase):
    """The reference data plane: one dict probe per flow.

    Flows live in a plain dict keyed by the integer flow key, each holding
    a ``[service, prefix id, bytes, created, last seen]`` record — the same
    columns :class:`VectorFlowTable` keeps as arrays.  Batches are replayed
    flow by flow, making this the semantic oracle the vectorized plane is
    property-tested against.
    """

    kind = "scalar"

    def __init__(self) -> None:
        super().__init__()
        self._entries: Dict[int, List[Any]] = {}

    def forward(
        self,
        batch: FlowBatch,
        selections: Mapping[int, Optional[str]],
        now_s: float,
    ) -> ForwardResult:
        with METRICS.timed("tm.forward.scalar"):
            return self._forward(batch, selections, now_s, record_bytes=True)

    def admit(
        self,
        batch: FlowBatch,
        selections: Mapping[int, Optional[str]],
        now_s: float,
    ) -> ForwardResult:
        with METRICS.timed("tm.forward.scalar"):
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

    def to_snapshot(self) -> Dict[str, Any]:
        return {
            "version": TM_SNAPSHOT_VERSION,
            "kind": self.kind,
            "prefixes": list(self._prefix_names),
            "flows": {int(key): list(entry) for key, entry in self._entries.items()},
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "ScalarDataPlane":
        _check_snapshot(snapshot, "scalar")
        plane = cls()
        for name in snapshot["prefixes"]:
            plane.prefix_id(name)
        plane._entries = {
            int(key): [int(sid), int(pid), int(nbytes), float(created), float(seen)]
            for key, (sid, pid, nbytes, created, seen) in snapshot["flows"].items()
        }
        n_prefixes = len(plane._prefix_names)
        if any(not 0 <= e[_PREFIX] < n_prefixes for e in plane._entries.values()):
            raise ValueError("snapshot pins a flow to an unknown prefix id")
        return plane


class VectorFlowTable(_PlaneBase):
    """Struct-of-arrays flow table: the million-flow data plane.

    Columns are parallel numpy arrays kept sorted by flow key, so a batch
    lookup is one ``searchsorted`` and a batch admission one merged
    ``insert`` per column — O((n + m) log n) for the whole batch with no
    per-flow Python work.
    """

    def __init__(self) -> None:
        super().__init__()
        self._keys = np.empty(0, dtype=np.uint64)
        self._service = np.empty(0, dtype=np.int32)
        self._prefix = np.empty(0, dtype=np.int32)
        self._bytes = np.empty(0, dtype=np.float64)
        self._created = np.empty(0, dtype=np.float64)
        self._last_seen = np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._keys)

    def _locate(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(row, found) for a key array against the sorted table."""
        pos = np.searchsorted(self._keys, keys)
        if len(self._keys):
            in_range = pos < len(self._keys)
            rows = np.where(in_range, pos, 0)
            found = in_range & (self._keys[rows] == keys)
        else:
            rows = pos
            found = np.zeros(len(keys), dtype=bool)
        return rows, found

    def forward(
        self,
        batch: FlowBatch,
        selections: Mapping[int, Optional[str]],
        now_s: float,
    ) -> ForwardResult:
        with METRICS.timed("tm.forward.vector"):
            return self._forward(batch, selections, now_s, record_bytes=True)

    def admit(
        self,
        batch: FlowBatch,
        selections: Mapping[int, Optional[str]],
        now_s: float,
    ) -> ForwardResult:
        with METRICS.timed("tm.forward.vector"):
            return self._forward(batch, selections, now_s, record_bytes=False)

    def _forward(
        self,
        batch: FlowBatch,
        selections: Mapping[int, Optional[str]],
        now_s: float,
        record_bytes: bool,
    ) -> ForwardResult:
        sel = self._selection_ids(selections)
        n = len(batch)
        out = np.full(n, -1, dtype=np.int32)
        bytes_recorded = 0.0
        if n == 0:
            self._c_batches.add()
            self._h_batch.observe(0)
            return ForwardResult(out, 0, 0, 0, 0.0)

        # Per-service selection lookup array (-1 = no live destination).
        max_sid = int(batch.service_ids.max())
        if sel:
            max_sid = max(max_sid, max(sel))
        sel_arr = np.full(max_sid + 1, -1, dtype=np.int32)
        for sid, pid in sel.items():
            if sid <= max_sid:
                sel_arr[sid] = pid

        rows, found = self._locate(batch.keys)
        hit_rows = rows[found]
        if len(hit_rows):
            if record_bytes:
                np.add.at(
                    self._bytes,
                    hit_rows,
                    np.floor(batch.payload_bytes[found]),
                )
                bytes_recorded += float(
                    np.floor(batch.payload_bytes[found]).sum()
                )
            self._last_seen[hit_rows] = now_s
            out[np.nonzero(found)[0]] = self._prefix[hit_rows]
        existing = int(found.sum())

        miss = ~found
        admitted = 0
        unroutable = 0
        if miss.any():
            new_keys = batch.keys[miss]
            new_sids = batch.service_ids[miss]
            new_bytes = (
                np.floor(batch.payload_bytes[miss])
                if record_bytes
                else np.zeros(int(miss.sum()))
            )
            # First occurrence in batch order decides the flow's fate —
            # same rule the scalar reference applies flow by flow.
            uniq, first, inv = np.unique(
                new_keys, return_index=True, return_inverse=True
            )
            first_sid = np.clip(new_sids[first], 0, max_sid)
            pid_new = sel_arr[first_sid]
            routable = pid_new >= 0
            per_occurrence = pid_new[inv]
            out[np.nonzero(miss)[0]] = per_occurrence
            unroutable = int((per_occurrence < 0).sum())
            if routable.any():
                agg = np.zeros(len(uniq))
                np.add.at(agg, inv, new_bytes)
                create_keys = uniq[routable]
                insert_at = np.searchsorted(self._keys, create_keys)
                self._keys = np.insert(self._keys, insert_at, create_keys)
                self._service = np.insert(
                    self._service, insert_at, new_sids[first][routable]
                )
                self._prefix = np.insert(
                    self._prefix, insert_at, pid_new[routable]
                )
                self._bytes = np.insert(
                    self._bytes, insert_at, agg[routable]
                )
                self._created = np.insert(self._created, insert_at, now_s)
                self._last_seen = np.insert(self._last_seen, insert_at, now_s)
                admitted = int(routable.sum())
                bytes_recorded += float(agg[routable].sum())
                # Later in-batch occurrences of a just-admitted key find
                # the entry in the scalar reference (admit, then hit), so
                # they count as existing — only the first occurrence is an
                # admission.
                existing += int(routable[inv].sum()) - admitted

        self._c_admitted.add(admitted)
        self._c_existing.add(existing)
        self._c_unroutable.add(unroutable)
        self._c_batches.add()
        self._h_batch.observe(n)
        return ForwardResult(
            assignments=out,
            admitted=admitted,
            existing=existing,
            unroutable=unroutable,
            bytes_recorded=bytes_recorded,
        )

    def remap(self, from_prefix: str, to_prefix: str) -> int:
        with METRICS.timed("tm.remap.vector"):
            from_id = self.prefix_id(from_prefix)
            to_id = self.prefix_id(to_prefix)
            if from_id == to_id:
                return 0
            mask = self._prefix == from_id
            moved = int(mask.sum())
            if moved:
                self._prefix[mask] = to_id
            self._c_remapped.add(moved)
            return moved

    def end(self, keys: np.ndarray) -> int:
        keys = np.asarray(keys, dtype=np.uint64)
        rows, found = self._locate(keys)
        doomed = np.unique(rows[found])
        if len(doomed):
            keep = np.ones(len(self._keys), dtype=bool)
            keep[doomed] = False
            self._keys = self._keys[keep]
            self._service = self._service[keep]
            self._prefix = self._prefix[keep]
            self._bytes = self._bytes[keep]
            self._created = self._created[keep]
            self._last_seen = self._last_seen[keep]
        ended = int(len(doomed))
        self._c_ended.add(ended)
        return ended

    def flow_count(self) -> int:
        return len(self._keys)

    def destinations(self) -> Dict[str, int]:
        if not len(self._keys):
            return {}
        counts = np.bincount(self._prefix, minlength=len(self._prefix_names))
        return {
            self._prefix_names[pid]: int(count)
            for pid, count in enumerate(counts)
            if count
        }

    def bytes_by_destination(self) -> Dict[str, float]:
        if not len(self._keys):
            return {}
        totals = np.bincount(
            self._prefix, weights=self._bytes, minlength=len(self._prefix_names)
        )
        counts = np.bincount(self._prefix, minlength=len(self._prefix_names))
        return {
            self._prefix_names[pid]: float(totals[pid])
            for pid in range(len(self._prefix_names))
            if counts[pid]
        }

    def to_packed_snapshot(self) -> Dict[str, Any]:
        """The plane's one snapshot encoding: base64-packed columns.

        The raw column bytes (~37 bytes/flow) are what :meth:`to_snapshot`
        returns and what rides inside controller checkpoints
        (:class:`repro.soak.SoakDriver`).
        """
        import base64

        def pack(array: np.ndarray) -> Dict[str, str]:
            return {
                "dtype": str(array.dtype),
                "b64": base64.b64encode(
                    np.ascontiguousarray(array).tobytes()
                ).decode("ascii"),
            }

        return {
            "version": TM_SNAPSHOT_VERSION,
            "kind": "vector-packed",
            "prefixes": list(self._prefix_names),
            "columns": {
                "keys": pack(self._keys),
                "service": pack(self._service),
                "prefix": pack(self._prefix),
                "bytes": pack(self._bytes),
                "created": pack(self._created),
                "last_seen": pack(self._last_seen),
            },
        }

    @classmethod
    def from_packed_snapshot(
        cls, snapshot: Mapping[str, Any]
    ) -> "VectorFlowTable":
        """Inverse of :meth:`to_packed_snapshot` (exact bit round-trip)."""
        import base64

        _check_snapshot(snapshot, "vector-packed")
        plane = cls()
        for name in snapshot["prefixes"]:
            plane.prefix_id(name)
        columns = snapshot["columns"]

        def unpack(payload: Mapping[str, str]) -> np.ndarray:
            return np.frombuffer(
                base64.b64decode(payload["b64"]),
                dtype=np.dtype(payload["dtype"]),
            ).copy()

        plane._keys = unpack(columns["keys"])
        plane._service = unpack(columns["service"])
        plane._prefix = unpack(columns["prefix"])
        plane._bytes = unpack(columns["bytes"])
        plane._created = unpack(columns["created"])
        plane._last_seen = unpack(columns["last_seen"])
        lengths = {
            len(plane._keys),
            len(plane._service),
            len(plane._prefix),
            len(plane._bytes),
            len(plane._created),
            len(plane._last_seen),
        }
        if len(lengths) != 1:
            raise ValueError("packed snapshot columns have mismatched lengths")
        return plane

    def to_snapshot(self) -> Dict[str, Any]:
        # Looked up on the instance so a wrapped ``to_packed_snapshot``
        # (e.g. a timing hook) sees every checkpoint.
        return self.to_packed_snapshot()


def _check_snapshot(snapshot: Mapping[str, Any], kind: str) -> None:
    version = snapshot.get("version")
    if version != TM_SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version!r}")
    if snapshot.get("kind") != kind:
        raise ValueError(
            f"snapshot kind {snapshot.get('kind')!r} is not {kind!r}"
        )


def plane_from_snapshot(snapshot: Mapping[str, Any]) -> "DataPlane":
    """Rebuild whichever data plane a snapshot came from."""
    kind = snapshot.get("kind")
    if kind == "scalar":
        return ScalarDataPlane.from_snapshot(snapshot)
    if kind == "vector-packed":
        return VectorFlowTable.from_packed_snapshot(snapshot)
    raise ValueError(f"unknown data-plane kind {kind!r}")
