"""Versioned JSONL run journal: every span and event of a run, in order.

A :class:`RunJournal` collects two record kinds:

* ``span`` records emitted by the :class:`~repro.telemetry.tracer.Tracer`
  in span-completion order, and
* ``event`` records — advertisements pushed, measurement rounds,
  injected faults, failover remaps — emitted by instrumented code via
  :meth:`RunJournal.record_event`.

Records are kept in arrival order and stamped with a monotonically
increasing ``seq``, so for a deterministic workload the journal itself is
deterministic.  By default wall/CPU timings are **excluded** from the
serialized form (``include_timings=False``): identical seeds then produce
byte-identical JSONL files, which is the determinism gate
``tests/test_telemetry_journal.py`` asserts.  The CLI enables timings so
``repro trace`` can render real time breakdowns.

The on-disk format is JSONL: one header line (``{"kind": "header",
"journal_version": 1, ...}``) followed by one compact JSON object per
record with sorted keys.  A journal is in-memory until written whole
(:meth:`RunJournal.write`), or durable when :meth:`RunJournal.create` or
:meth:`RunJournal.resume` binds it to a file: :meth:`RunJournal.sync`
then appends the unwritten records and fsyncs them.

One reader serves :func:`load_journal` and :meth:`RunJournal.resume`.  A
malformed header raises :class:`JournalError`; the first body line that
is not a UTF-8 JSON object with an integer ``seq`` is a torn tail (a
crash interrupted an append there) and is dropped with every line after
it.  :func:`journal_to_result` reconstructs the per-phase time/benefit
breakdown table rendered by ``repro trace``.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.metrics import METRICS
from repro.telemetry.tracer import Span

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

#: Bump when the record schema changes shape incompatibly.
JOURNAL_VERSION = 1

_JSON_COMPACT = {"sort_keys": True, "separators": (",", ":")}


class JournalError(ValueError):
    """Raised for a journal file that is missing, empty or has a bad header."""


class RunJournal:
    """Record stream with deterministic JSONL serialization.

    In-memory by default; :meth:`create` (a fresh run) or :meth:`resume`
    (after a crash) binds it to a file that :meth:`sync` appends to.
    """

    def __init__(
        self,
        run_name: str = "run",
        include_timings: bool = False,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.run_name = run_name
        self.include_timings = include_timings
        self.meta: Dict[str, Any] = dict(meta) if meta else {}
        self.records: List[Dict[str, Any]] = []
        #: Lines the reader dropped: a torn tail, or records past ``upto_seq``.
        self.dropped = 0
        self._seq = 0
        self._written = 0
        self._fh = None

    # -- recording ----------------------------------------------------------

    def record_span(self, span: Span) -> None:
        """Sink for :meth:`Tracer.enable` — called on span completion."""
        record = span.to_record()
        if not self.include_timings:
            del record["wall_s"]
            del record["cpu_s"]
        record["kind"] = "span"
        self._append(record)

    def record_event(self, event_type: str, **fields: Any) -> None:
        """Record one domain event (advertisement, measurement, fault...).

        Field names ``kind``/``event``/``seq`` are reserved for the record
        envelope and rejected rather than silently clobbered.
        """
        for reserved in ("kind", "event", "seq"):
            if reserved in fields:
                raise ValueError(f"event field {reserved!r} is reserved")
        record: Dict[str, Any] = {"kind": "event", "event": event_type}
        record.update(fields)
        self._append(record)

    def _append(self, record: Dict[str, Any]) -> None:
        record["seq"] = self._seq
        self._seq += 1
        self.records.append(record)

    @property
    def last_seq(self) -> int:
        """Sequence of the newest record (-1 while empty)."""
        return self._seq - 1

    # -- serialization ------------------------------------------------------

    def header(self) -> Dict[str, Any]:
        return {
            "kind": "header",
            "journal_version": JOURNAL_VERSION,
            "run_name": self.run_name,
            "include_timings": self.include_timings,
            "meta": self.meta,
        }

    def to_jsonl(self) -> str:
        """Serialize header + records as deterministic compact JSONL."""
        lines = [json.dumps(self.header(), **_JSON_COMPACT)]
        lines.extend(json.dumps(r, **_JSON_COMPACT) for r in self.records)
        return "\n".join(lines) + "\n"

    def write(self, path: PathLike) -> None:
        """Durably replace ``path`` with the whole journal."""
        from repro.io import atomic_write_text  # repro.io imports telemetry

        atomic_write_text(path, self.to_jsonl())

    # -- the durable file ---------------------------------------------------

    @classmethod
    def create(
        cls,
        path: PathLike,
        run_name: str = "run",
        meta: Optional[Dict[str, Any]] = None,
    ) -> "RunJournal":
        """Begin a fresh journal file (header line, fsync'd)."""
        journal = cls(run_name, meta=meta)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        journal._fh = open(path, "w", encoding="ascii")
        journal._fh.write(json.dumps(journal.header(), **_JSON_COMPACT) + "\n")
        journal._fsync()
        return journal

    @classmethod
    def resume(cls, path: PathLike, upto_seq: int) -> "RunJournal":
        """Reload the durable prefix of an interrupted run's journal.

        ``upto_seq`` is the last record sequence the caller vouches for
        (the newest durable checkpoint's).  A torn tail and every record
        past ``upto_seq`` are dropped — the interrupted iteration re-runs
        deterministically and re-appends them — and the file is
        atomically rewritten before appending resumes, so the recovered
        journal is byte-identical to an uninterrupted run's.
        """
        from repro.io import atomic_write_text  # repro.io imports telemetry

        journal = _read(path, upto_seq)
        if journal.dropped:
            logger.info(
                "journal recovery dropped %d record(s) past seq %d",
                journal.dropped,
                upto_seq,
            )
            METRICS.counter("controller.journal_tail_dropped").add(journal.dropped)
        atomic_write_text(path, journal.to_jsonl())
        journal._written = len(journal.records)
        journal._fh = open(path, "a", encoding="ascii")
        return journal

    def sync(self) -> None:
        """Append every unwritten record, then flush and fsync."""
        if self._fh is None:
            raise RuntimeError("journal has no file (use create() or resume())")
        for record in self.records[self._written:]:
            self._fh.write(json.dumps(record, **_JSON_COMPACT) + "\n")
        self._written = len(self.records)
        self._fsync()

    def tear(self) -> None:
        """Crash-injection helper: flush a deliberately torn half-record.

        Simulates the kernel persisting only part of an append before the
        process died; the reader must drop the fragment.
        """
        if self._fh is None:
            raise RuntimeError("journal has no file (use create() or resume())")
        pending = self.records[self._written:]
        if pending:
            line = json.dumps(pending[0], **_JSON_COMPACT)
            self._fh.write(line[: max(1, len(line) // 2)])
        else:
            self._fh.write('{"kind":"event","event":"torn","half')
        self._fsync()

    def _fsync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Sync and release the file (a no-op for an in-memory journal)."""
        if self._fh is not None:
            try:
                self.sync()
            finally:
                self._fh.close()
                self._fh = None

    # -- queries ------------------------------------------------------------

    def spans(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("kind") == "span"]

    def events(self, event_type: Optional[str] = None) -> List[Dict[str, Any]]:
        out = [r for r in self.records if r.get("kind") == "event"]
        if event_type is not None:
            out = [r for r in out if r.get("event") == event_type]
        return out

    def __len__(self) -> int:
        return len(self.records)


def _read(path: PathLike, upto_seq: Optional[int] = None) -> RunJournal:
    """Parse a journal file into an unbound :class:`RunJournal`."""
    path = Path(path)
    try:
        lines = [line for line in path.read_bytes().splitlines() if line.strip()]
    except OSError as exc:
        raise JournalError(f"unreadable journal {path}: {exc}") from exc
    if not lines:
        raise JournalError(f"journal {path} is empty")
    try:
        header = json.loads(lines[0].decode("utf-8"))
    except ValueError as exc:  # undecodable bytes or bad JSON
        raise JournalError(f"journal {path} has a corrupt header") from exc
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise JournalError(f"journal {path} does not start with a header record")
    version = header.get("journal_version")
    if type(version) is not int or version != JOURNAL_VERSION:
        raise JournalError(
            f"unsupported journal version {version!r} in {path} "
            f"(this build reads version {JOURNAL_VERSION})"
        )
    run_name = header.get("run_name")
    meta = header.get("meta")
    include_timings = header.get("include_timings", False)
    if (
        not isinstance(run_name, str)
        or not isinstance(meta, dict)
        or not isinstance(include_timings, bool)
    ):
        raise JournalError(f"journal {path} has a malformed header")
    journal = RunJournal(run_name, include_timings=include_timings, meta=meta)
    body = lines[1:]
    for i, line in enumerate(body):
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:
            record = None
        seq = record.get("seq") if isinstance(record, dict) else None
        if type(seq) is not int:
            # Torn tail: a crash interrupted an append here (the writer
            # emits ASCII only, so rotted bytes land here too).
            journal.dropped += len(body) - i
            break
        if upto_seq is not None and seq > upto_seq:
            journal.dropped += 1
            continue
        journal.records.append(record)
    if journal.records:
        journal._seq = max(r["seq"] for r in journal.records) + 1
    return journal


def load_journal(path: PathLike) -> RunJournal:
    """Read a JSONL journal (a torn tail is dropped and counted)."""
    return _read(path)


def journal_to_result(journal: RunJournal):
    """Build the per-phase breakdown table ``repro trace`` renders.

    Aggregates spans by name (count, total/mean wall time when the journal
    carries timings) and appends event tallies, reusing the existing
    :class:`~repro.experiments.harness.ExperimentResult` report machinery.
    """
    from repro.experiments.harness import ExperimentResult

    spans = journal.spans()
    events = journal.events()
    with_timings = journal.include_timings

    if with_timings:
        result = ExperimentResult(
            experiment_id="trace",
            title=f"per-phase breakdown for {journal.run_name}",
            columns=("phase", "spans", "total wall (s)", "mean wall (ms)", "cpu (s)"),
        )
    else:
        result = ExperimentResult(
            experiment_id="trace",
            title=f"per-phase breakdown for {journal.run_name}",
            columns=("phase", "spans"),
        )

    by_name: Dict[str, Dict[str, float]] = {}
    order: List[str] = []
    for span in spans:
        name = span["name"]
        agg = by_name.get(name)
        if agg is None:
            agg = by_name[name] = {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
            order.append(name)
        agg["count"] += 1
        agg["wall_s"] += span.get("wall_s", 0.0)
        agg["cpu_s"] += span.get("cpu_s", 0.0)

    # Heaviest phases first when we know the timings; first-seen otherwise.
    if with_timings:
        order.sort(key=lambda n: -by_name[n]["wall_s"])
    for name in order:
        agg = by_name[name]
        if with_timings:
            count = int(agg["count"])
            mean_ms = 1000.0 * agg["wall_s"] / count if count else 0.0
            result.add_row(
                name, count, f"{agg['wall_s']:.3f}", f"{mean_ms:.2f}",
                f"{agg['cpu_s']:.3f}",
            )
        else:
            result.add_row(name, int(agg["count"]))

    if journal.dropped:
        result.add_note(f"dropped {journal.dropped} torn trailing line(s)")
    if not spans:
        result.add_note("journal contains no spans (was tracing enabled?)")
    if not with_timings:
        result.add_note(
            "journal was written without timings (deterministic mode); "
            "re-run with timings enabled for wall/CPU columns"
        )

    counts: Dict[str, int] = {}
    for event in events:
        counts[event.get("event", "?")] = counts.get(event.get("event", "?"), 0) + 1
    for event_type in sorted(counts):
        result.add_note(f"event {event_type}: {counts[event_type]} recorded")

    benefit_events = [e for e in events if "realized_benefit" in e]
    if benefit_events:
        last = benefit_events[-1]
        result.add_note(
            f"final realized benefit: {float(last['realized_benefit']):.4f}"
        )
    return result
