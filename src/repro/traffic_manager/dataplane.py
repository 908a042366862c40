"""The batched Traffic Manager data plane: one vectorized flow table.

The Traffic Manager steers each flow at 5-tuple granularity (§3.2), which
at the ROADMAP's "millions of users" scale means the per-flow state machine
must not cost one Python object and one dict lookup per flow.
:class:`VectorFlowTable` is the one flow store: a struct-of-arrays table
(numpy columns for hashed 5-tuple, service id, selected prefix id, bytes,
created/last-seen timestamps) held as a few runs sorted by flow key, so a
batch of a million admissions is a handful of ``searchsorted`` passes and
at most one k-way rewrite of sorted runs instead of a million dict probes,
and a batch of m flows costs O(m log n), not a rewrite of the whole table.

A :class:`~repro.traffic_manager.tm_edge.TMEdge` steers its per-flow and
batched calls through the same table.  The test suite keeps a scalar
reference (one dict record per flow, replayed flow by flow) and asserts
the table bit-identical to it on steering decisions, byte counters, and
failover re-mappings.

Batch semantics:

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
* :meth:`~VectorFlowTable.remap` implements RTT-timescale failover: every
  flow pinned to a dead prefix moves to the replacement in one operation;
  remapping a prefix onto itself moves nothing.

Batch counters/timers land in the shared :data:`repro.telemetry.METRICS`
registry under ``tm.*`` names.
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.telemetry import METRICS
from repro.traffic_manager.flows import FiveTuple


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
    ``service_ids`` (non-negative int32), ``payload_bytes`` (finite,
    non-negative float64 bytes carried by this batch's packets per flow;
    zero for pure admissions).
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
        payload = self.payload_bytes
        if len(payload) and not (payload.min() >= 0 and np.isfinite(payload.max())):
            raise ValueError("payload bytes must be finite and non-negative")
        if len(self.service_ids) and int(self.service_ids.min()) < 0:
            raise ValueError("service ids must be non-negative")

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
    """Outcome of one batched :meth:`VectorFlowTable.forward` call.

    ``assignments`` holds, per input flow, the interned id of the prefix
    the flow is pinned to (``-1`` if dropped as unroutable); translate with
    :meth:`VectorFlowTable.prefix_name`.
    """

    assignments: np.ndarray
    admitted: int
    existing: int
    unroutable: int
    bytes_recorded: float


#: A :class:`VectorFlowTable` run's columns with their dtypes, in packed
#: snapshot order.
_COLUMNS = (
    ("keys", np.uint64),
    ("service", np.int32),
    ("prefix", np.int32),
    ("bytes", np.float64),
    ("created", np.float64),
    ("last_seen", np.float64),
)

#: The prefix id of an ended flow: its row is a tombstone until the run
#: holding it is next rewritten.
_ENDED = -1

#: A pushed run absorbs each older neighbour holding at most this many
#: times the live flows absorbed so far (all in one rewrite), so live run
#: sizes grow geometrically from the newest run to the oldest: O(log n)
#: runs, and O(log n) rewrites of each flow over its life.
MERGE_RATIO = 2

#: Rows a rewrite orders at a time (see :meth:`VectorFlowTable._rewrite`).
#: Its permutations and gather buffers stay range-sized, so a rewrite
#: frees no table-sized temporary: freeing one would raise glibc's dynamic
#: mmap threshold past the next table-sized columns, which would then
#: land on (and fragment) the heap instead of in their own mappings.
_REWRITE_BLOCK = 1 << 16


class _Run:
    """One sorted run of a :class:`VectorFlowTable`: parallel columns in
    ascending key order, each key at most once.  An ended flow stays in
    place with prefix id ``_ENDED`` until the run is rewritten."""

    __slots__ = ("keys", "service", "prefix", "bytes", "created", "last_seen", "dead")

    def __init__(self, keys, service, prefix, nbytes, created, last_seen) -> None:
        self.keys = keys
        self.service = service
        self.prefix = prefix
        self.bytes = nbytes
        self.created = created
        self.last_seen = last_seen
        #: Tombstones among the rows.
        self.dead = 0

    @classmethod
    def empty(cls) -> "_Run":
        return cls(*(np.empty(0, dtype=dtype) for _name, dtype in _COLUMNS))

    def columns(self) -> Tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name, _dtype in _COLUMNS)

    @property
    def live(self) -> int:
        return len(self.keys) - self.dead

    def live_rows(self) -> Union[slice, np.ndarray]:
        """Index of the live rows: all of them (a slice, so no copy) or a
        mask past the tombstones."""
        return slice(None) if not self.dead else self.prefix != _ENDED

    def locate(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(row, found) of each key among this (non-empty) run's live
        flows.  ``keys`` come sorted: ``searchsorted`` then walks the run
        in order instead of missing the cache on every probe."""
        rows = np.searchsorted(self.keys, keys)
        np.minimum(rows, len(self.keys) - 1, out=rows)
        found = self.keys[rows] == keys
        found &= self.prefix[rows] != _ENDED
        return rows, found


class VectorFlowTable:
    """Tiered struct-of-arrays flow table: the million-flow data plane.

    Flows live in a few runs (:class:`_Run`), each a set of parallel numpy
    columns sorted by flow key, oldest and largest first.  A batch is looked
    up with one ``searchsorted`` per run, newest first and only for the keys
    no newer run held; its admissions become one new run, which absorbs
    its older neighbours by :data:`MERGE_RATIO` in one rewrite
    (:meth:`_rewrite`: per key range, one stable argsort of the runs' keys
    laid end to end and one ``take`` per column); ``end`` writes
    tombstones, and a run more than half tombstones is rewritten alone.
    A batch of m flows on a table of n therefore costs O(m log n) plus its
    amortised share of rewrites, instead of a rewrite of every column.
    ``tm.rows_rewritten`` counts the rows rewrites write.

    Destination prefixes are interned to small ids in operation order
    (:meth:`prefix_id`); the columns hold the ids.

    :meth:`to_packed_snapshot` first folds the runs into one, so a snapshot
    depends only on the live flows, never on the batch history behind them.
    """

    def __init__(self) -> None:
        self._prefix_names: List[str] = []
        self._prefix_index: Dict[str, int] = {}
        #: Oldest first; never holds an empty run.
        self._runs: List[_Run] = []
        self._c_admitted = METRICS.counter("tm.flows_admitted")
        self._c_existing = METRICS.counter("tm.flows_existing")
        self._c_unroutable = METRICS.counter("tm.flows_unroutable")
        self._c_remapped = METRICS.counter("tm.flows_remapped")
        self._c_ended = METRICS.counter("tm.flows_ended")
        self._c_batches = METRICS.counter("tm.batches")
        self._h_batch = METRICS.histogram("tm.batch_flows")
        self._c_rewritten = METRICS.counter("tm.rows_rewritten")

    def __len__(self) -> int:
        return self.flow_count()

    def prefix_id(self, prefix: str) -> int:
        """Intern a destination prefix; stable id for the table's lifetime."""
        pid = self._prefix_index.get(prefix)
        if pid is None:
            pid = len(self._prefix_names)
            self._prefix_names.append(prefix)
            self._prefix_index[prefix] = pid
        return pid

    def prefix_name(self, prefix_id: int) -> str:
        """Inverse of :meth:`prefix_id`."""
        try:
            return self._prefix_names[prefix_id]
        except IndexError:
            raise KeyError(f"unknown prefix id {prefix_id}") from None

    def _selection_ids(
        self, selections: Mapping[int, Optional[str]]
    ) -> Dict[int, int]:
        """Per-service selections as prefix ids, interned in service order
        so identical inputs give identical ids."""
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
        with METRICS.timed("tm.forward.vector"):
            result, admissions = self._forward(batch, selections, now_s)
            # Pushed once the batch's temporaries are freed, so a rewrite
            # reuses their memory instead of growing the heap past it.
            if admissions is not None:
                self._push(admissions)
            return result

    def _forward(
        self,
        batch: FlowBatch,
        selections: Mapping[int, Optional[str]],
        now_s: float,
    ) -> Tuple[ForwardResult, Optional[_Run]]:
        """The batch's result, and its admissions as a run to push."""
        sel = self._selection_ids(selections)
        n = len(batch)
        out = np.full(n, -1, dtype=np.int32)
        bytes_recorded = 0.0
        if n == 0:
            self._c_batches.add()
            self._h_batch.observe(0)
            return ForwardResult(out, 0, 0, 0, 0.0), None

        # Per-service selection lookup array (-1 = no live destination).
        max_sid = int(batch.service_ids.max())
        if sel:
            max_sid = max(max_sid, max(sel))
        sel_arr = np.full(max_sid + 1, -1, dtype=np.int32)
        for sid, pid in sel.items():
            if sid <= max_sid:
                sel_arr[sid] = pid

        # The batch in key order; ``pending`` indexes the sorted keys no
        # run has held yet, so every ``locate`` gets sorted keys.
        order = np.argsort(batch.keys)
        keys = batch.keys[order]
        pending = np.arange(n)
        existing = 0
        for run in reversed(self._runs):
            rows, found = run.locate(keys[pending])
            if not found.any():
                continue
            hits, rows = order[pending[found]], rows[found]
            payload = np.floor(batch.payload_bytes[hits])
            np.add.at(run.bytes, rows, payload)
            bytes_recorded += float(payload.sum())
            run.last_seen[rows] = now_s
            out[hits] = run.prefix[rows]
            existing += len(hits)
            pending = pending[~found]
            if not len(pending):
                break

        admitted = 0
        unroutable = 0
        admissions = None
        if len(pending):
            new_keys = keys[pending]
            positions = order[pending]
            # Occurrences of one key are adjacent; ``group`` numbers the
            # distinct keys, ``starts`` is each one's first slot.
            fresh = np.empty(len(new_keys), dtype=bool)
            fresh[0] = True
            np.not_equal(new_keys[1:], new_keys[:-1], out=fresh[1:])
            starts = np.flatnonzero(fresh)
            group = np.cumsum(fresh) - 1
            # First occurrence in batch order decides the flow's fate, as
            # if the batch were replayed flow by flow.
            first_sid = batch.service_ids[np.minimum.reduceat(positions, starts)]
            pid_new = sel_arr[first_sid]
            routable = pid_new >= 0
            per_occurrence = pid_new[group]
            out[positions] = per_occurrence
            unroutable = int((per_occurrence < 0).sum())
            if routable.any():
                agg = np.add.reduceat(
                    np.floor(batch.payload_bytes[positions]), starts
                )
                admitted = int(routable.sum())
                stamps = np.full(admitted, now_s)
                admissions = _Run(
                    new_keys[starts][routable],
                    first_sid[routable],
                    pid_new[routable],
                    agg[routable],
                    stamps,
                    stamps.copy(),
                )
                bytes_recorded += float(agg[routable].sum())
                # Later in-batch occurrences of a just-admitted key find
                # it pinned (admit, then hit), so they count as existing —
                # only the first occurrence is an admission.
                existing += int(routable[group].sum()) - admitted

        self._c_admitted.add(admitted)
        self._c_existing.add(existing)
        self._c_unroutable.add(unroutable)
        self._c_batches.add()
        self._h_batch.observe(n)
        result = ForwardResult(
            assignments=out,
            admitted=admitted,
            existing=existing,
            unroutable=unroutable,
            bytes_recorded=bytes_recorded,
        )
        return result, admissions

    def _push(self, run: _Run) -> None:
        """Append a batch's admissions as the newest run.  It first absorbs
        each older neighbour holding at most ``MERGE_RATIO`` times the
        live flows absorbed so far; the whole cascade is one rewrite."""
        runs = self._runs
        live = run.live
        first = len(runs)
        while first and runs[first - 1].live <= MERGE_RATIO * live:
            first -= 1
            live += runs[first].live
        if first < len(runs):
            run = self._rewrite(runs[first:] + [run])
            del runs[first:]
        runs.append(run)

    def _rewrite(self, runs: Sequence[_Run]) -> _Run:
        """One tombstone-free run of ``runs``' live flows; the given runs
        give up their columns.

        Cut at keys of the largest run, the key space falls into ranges
        of about :data:`_REWRITE_BLOCK` rows, each a slice of every run.
        In a range, the runs' live rows are laid end to end and one stable
        argsort of their keys orders them: sorted runs laid end to end
        sort as a k-way merge, and a key is live in at most one run, so
        the keys stay unique.  Every other column is then one ``take`` per
        range with the same permutations, column by column, each input
        column released once rewritten."""
        size = sum(run.live for run in runs)
        merge = len(runs) > 1
        n_ranges = -(-size // _REWRITE_BLOCK) if merge else 1
        largest = max(runs, key=lambda run: len(run.keys))
        splitters = largest.keys[
            np.arange(1, n_ranges) * len(largest.keys) // n_ranges
        ]
        cuts = [
            np.r_[0, np.searchsorted(run.keys, splitters), len(run.keys)]
            for run in runs
        ]
        live = [run.live_rows() for run in runs]
        perms: List[np.ndarray] = []
        columns = []
        for name, dtype in _COLUMNS:
            column = np.empty(size, dtype=dtype)
            at = 0
            for r in range(n_ranges):
                pieces = []
                for run, cut, rows in zip(runs, cuts, live):
                    lo, hi = cut[r], cut[r + 1]
                    piece = getattr(run, name)[lo:hi]
                    pieces.append(piece[rows[lo:hi]] if run.dead else piece)
                values = np.concatenate(pieces)
                if merge:
                    if name == "keys":
                        perms.append(np.argsort(values, kind="stable"))
                    values = values.take(perms[r])
                column[at:at + len(values)] = values
                at += len(values)
            for run in runs:
                setattr(run, name, None)
            columns.append(column)
        self._c_rewritten.add(size)
        return _Run(*columns)

    def _fold(self) -> _Run:
        """Rewrite the runs into one tombstone-free run and return it."""
        runs = self._runs
        if len(runs) > 1 or (runs and runs[0].dead):
            run = self._rewrite(runs)
            self._runs = [run] if len(run.keys) else []
        return self._runs[0] if self._runs else _Run.empty()

    def remap(self, from_prefix: str, to_prefix: str) -> int:
        with METRICS.timed("tm.remap.vector"):
            from_id = self.prefix_id(from_prefix)
            to_id = self.prefix_id(to_prefix)
            if from_id == to_id:
                return 0
            moved = 0
            for run in self._runs:
                # A tombstone's prefix id is _ENDED, so it never matches.
                mask = run.prefix == from_id
                count = int(np.count_nonzero(mask))
                if count:
                    run.prefix[mask] = to_id
                    moved += count
            self._c_remapped.add(moved)
            return moved

    def end(self, keys: np.ndarray) -> int:
        # Sorted and without repeats, so each live flow ends once.
        pending = np.sort(np.asarray(keys, dtype=np.uint64))
        if len(pending):
            pending = pending[np.r_[True, pending[1:] != pending[:-1]]]
        ended = 0
        for index in reversed(range(len(self._runs))):
            run = self._runs[index]
            if not len(pending):
                break
            rows, found = run.locate(pending)
            if not found.any():
                continue
            doomed = rows[found]
            run.prefix[doomed] = _ENDED
            run.dead += len(doomed)
            ended += len(doomed)
            pending = pending[~found]
            if 2 * run.dead > len(run.keys):
                self._runs[index] = self._rewrite([run])
        self._runs = [run for run in self._runs if len(run.keys)]
        self._c_ended.add(ended)
        return ended

    def flow_count(self) -> int:
        return sum(run.live for run in self._runs)

    def _per_prefix(self, weigh_bytes: bool) -> np.ndarray:
        """Live flows (or their bytes) summed per prefix id."""
        slots = len(self._prefix_names) + 1
        totals = np.zeros(slots)
        for run in self._runs:
            # Shifted by one so tombstones gather in slot 0.
            totals += np.bincount(
                run.prefix + 1,
                weights=run.bytes if weigh_bytes else None,
                minlength=slots,
            )
        return totals[1:]

    def destinations(self) -> Dict[str, int]:
        counts = self._per_prefix(weigh_bytes=False)
        return {
            self._prefix_names[pid]: int(count)
            for pid, count in enumerate(counts)
            if count
        }

    def bytes_by_destination(self) -> Dict[str, float]:
        counts = self._per_prefix(weigh_bytes=False)
        totals = self._per_prefix(weigh_bytes=True)
        return {
            self._prefix_names[pid]: float(totals[pid])
            for pid in range(len(self._prefix_names))
            if counts[pid]
        }

    def to_packed_snapshot(self) -> Dict[str, Any]:
        """The plane's one snapshot encoding: base64-packed columns.

        The runs are folded into one first, so the encoding is canonical:
        the live flows' columns in key order, whatever batches built them.
        The raw column bytes (~37 bytes/flow) are what a
        :class:`~repro.traffic_manager.TMEdge` snapshot carries; controller
        checkpoints hold no flow table (:class:`repro.soak.SoakDriver`
        rebuilds its plane on resume).
        """
        run = self._fold()
        return {
            "version": TM_SNAPSHOT_VERSION,
            "kind": "vector-packed",
            "prefixes": list(self._prefix_names),
            "columns": {
                name: {
                    "dtype": str(column.dtype),
                    "b64": base64.b64encode(
                        np.ascontiguousarray(column).tobytes()
                    ).decode("ascii"),
                }
                for (name, _dtype), column in zip(_COLUMNS, run.columns())
            },
        }

    @classmethod
    def from_packed_snapshot(
        cls, snapshot: Mapping[str, Any]
    ) -> "VectorFlowTable":
        """Inverse of :meth:`to_packed_snapshot` (exact bit round-trip).

        Raises ``ValueError`` for another version or ``kind``, a column
        that is missing, of another dtype or of another length, keys that
        are not strictly increasing, prefix ids the snapshot does not name,
        negative service ids, non-finite or negative bytes, and non-finite
        timestamps (negative ones are legal: a clock may start before zero).
        """
        version = snapshot.get("version")
        if version != TM_SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version!r}")
        if snapshot.get("kind") != "vector-packed":
            raise ValueError(
                f"snapshot kind {snapshot.get('kind')!r} is not 'vector-packed'"
            )
        plane = cls()
        for name in snapshot["prefixes"]:
            plane.prefix_id(name)
        columns = snapshot["columns"]

        def unpack(name: str, dtype: type) -> np.ndarray:
            payload = columns.get(name)
            if payload is None:
                raise ValueError(f"packed snapshot has no {name!r} column")
            expected = str(np.dtype(dtype))
            if payload.get("dtype") != expected:
                raise ValueError(
                    f"packed snapshot column {name!r} has dtype "
                    f"{payload.get('dtype')!r}, not {expected!r}"
                )
            return np.frombuffer(
                base64.b64decode(payload["b64"]), dtype=dtype
            ).copy()

        run = _Run(*(unpack(name, dtype) for name, dtype in _COLUMNS))
        if len({len(column) for column in run.columns()}) != 1:
            raise ValueError("packed snapshot columns have mismatched lengths")
        if not len(run.keys):
            return plane
        if (run.keys[1:] <= run.keys[:-1]).any():
            raise ValueError("packed snapshot keys are not strictly increasing")
        if run.prefix.min() < 0 or run.prefix.max() >= len(plane._prefix_names):
            raise ValueError("snapshot pins a flow to an unknown prefix id")
        # Min and max carry any NaN or infinity, so no mask is built.
        if run.service.min() < 0:
            raise ValueError("snapshot holds a negative service id")
        if not (run.bytes.min() >= 0 and np.isfinite(run.bytes.max())):
            raise ValueError("snapshot holds non-finite or negative bytes")
        for column in (run.created, run.last_seen):
            if not (np.isfinite(column.min()) and np.isfinite(column.max())):
                raise ValueError("snapshot holds a non-finite timestamp")
        plane._runs = [run]
        return plane
