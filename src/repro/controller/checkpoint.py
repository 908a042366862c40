"""Crash-safe persistence for the controller: checkpoints and the journal.

Two durability primitives, both built on ``repro.io.atomic_write_text``'s
write-temp / fsync / rename contract:

* :class:`CheckpointStore` — versioned, content-hashed snapshots of the
  controller's full resume state, one file per iteration
  (``checkpoint-00000042.json``).  Writes are atomic, loads verify the
  SHA-256 of the payload, and a corrupt or torn file is *skipped* (with a
  warning), falling back to the previous durable checkpoint instead of
  refusing to start.
* :class:`DurableJournal` — a :class:`repro.telemetry.RunJournal` whose
  records are appended incrementally to a JSONL file and fsync'd at each
  iteration boundary.  On resume the file is reloaded tolerantly: a torn
  trailing line (a crash mid-append) is dropped, and records past the
  last durable checkpoint's ``journal_seq`` are truncated away — the
  interrupted iteration re-runs deterministically and re-appends them,
  so the recovered journal is byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.io import atomic_write_text
from repro.telemetry import METRICS
from repro.telemetry.journal import RunJournal

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

#: Bump when the checkpoint payload schema changes incompatibly.
CHECKPOINT_VERSION = 1
_CHECKPOINT_KIND = "painter-controller-checkpoint"
_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})\.json$")
_JSON_COMPACT = {"sort_keys": True, "separators": (",", ":")}


class CheckpointError(ValueError):
    """Raised for malformed, mismatched, or corrupted checkpoints."""


def _payload_digest(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, **_JSON_COMPACT)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    """One verified checkpoint read back from disk."""

    seq: int
    payload: Dict[str, Any]
    path: Path


class CheckpointStore:
    """A directory of atomic, hash-verified controller checkpoints."""

    def __init__(self, directory: PathLike, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, seq: int) -> Path:
        return self.directory / f"checkpoint-{seq:08d}.json"

    def save(self, seq: int, payload: Dict[str, Any]) -> Path:
        """Durably write checkpoint ``seq``; prunes beyond ``keep``."""
        if seq < 0:
            raise ValueError("checkpoint seq must be non-negative")
        envelope = {
            "kind": _CHECKPOINT_KIND,
            "version": CHECKPOINT_VERSION,
            "seq": seq,
            "sha256": _payload_digest(payload),
            "payload": payload,
        }
        path = self.path_for(seq)
        atomic_write_text(path, json.dumps(envelope, sort_keys=True, indent=2))
        METRICS.counter("controller.checkpoints").add()
        self._prune()
        return path

    def _prune(self) -> None:
        paths = self.list_paths()
        for path in paths[: -self.keep]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                logger.debug("could not prune %s", path, exc_info=True)

    def list_paths(self) -> List[Path]:
        """All checkpoint files, oldest first."""
        entries = []
        for path in self.directory.iterdir():
            match = _CHECKPOINT_RE.match(path.name)
            if match:
                entries.append((int(match.group(1)), path))
        return [path for _, path in sorted(entries)]

    def load(self, path: PathLike) -> Checkpoint:
        """Read and verify one checkpoint file (raises on any mismatch)."""
        path = Path(path)
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # incl. undecodable bytes
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        if not isinstance(envelope, dict) or envelope.get("kind") != _CHECKPOINT_KIND:
            raise CheckpointError(f"{path} is not a controller checkpoint")
        if envelope.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {envelope.get('version')!r}"
            )
        payload = envelope.get("payload")
        seq = envelope.get("seq")
        if not isinstance(payload, dict) or not isinstance(seq, int):
            raise CheckpointError(f"{path} has a malformed envelope")
        if _payload_digest(payload) != envelope.get("sha256"):
            raise CheckpointError(f"{path} failed its content hash check")
        return Checkpoint(seq=seq, payload=payload, path=path)

    def latest(self) -> Optional[Checkpoint]:
        """The newest checkpoint that verifies; corrupt files are skipped.

        A crash can never tear a checkpoint (writes are atomic), but a
        disk can still rot one — recovery prefers losing an iteration to
        refusing to start, so verification failures fall back to the
        next-newest file.
        """
        for path in reversed(self.list_paths()):
            try:
                return self.load(path)
            except CheckpointError as exc:
                METRICS.counter("controller.corrupt_checkpoints").add()
                logger.warning("skipping corrupt checkpoint: %s", exc)
        return None


class DurableJournal:
    """A run journal with incremental fsync'd appends and tail recovery.

    Use :meth:`start` for a fresh run or :meth:`resume` after a crash;
    record events through :meth:`event` and make them durable with
    :meth:`sync` (one call per controller iteration).
    """

    def __init__(
        self,
        path: PathLike,
        run_name: str = "controller",
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = Path(path)
        self.journal = RunJournal(run_name, include_timings=False, meta=meta)
        self._written = 0
        self._fh = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "DurableJournal":
        """Begin a fresh journal file (header line, fsync'd)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="ascii")
        self._fh.write(json.dumps(self.journal.header(), **_JSON_COMPACT) + "\n")
        self._fsync()
        return self

    @classmethod
    def resume(cls, path: PathLike, journal_seq: int) -> "DurableJournal":
        """Reload the durable prefix of an interrupted run's journal.

        ``journal_seq`` is the last record sequence the newest durable
        checkpoint vouches for.  Anything after it — a torn trailing
        line, or whole records from the iteration the crash interrupted —
        is dropped, and the truncated file is atomically rewritten before
        appending resumes.  A line that is not a UTF-8 JSON record is a
        torn tail: it and every line after it are dropped.  A header that
        does not decode raises :class:`CheckpointError`.
        """
        path = Path(path)
        try:
            lines = path.read_bytes().splitlines()
        except OSError as exc:
            raise CheckpointError(f"unreadable journal {path}: {exc}") from exc
        if not lines:
            raise CheckpointError(f"journal {path} is empty")
        try:
            header = json.loads(lines[0].decode("utf-8"))
        except ValueError as exc:  # undecodable bytes or bad JSON
            raise CheckpointError(f"journal {path} has a corrupt header") from exc
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise CheckpointError(f"journal {path} does not start with a header")
        records: List[Dict[str, Any]] = []
        dropped = 0
        body = [line for line in lines[1:] if line.strip()]
        for i, line in enumerate(body):
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:
                record = None
            if not isinstance(record, dict) or not isinstance(record.get("seq"), int):
                # Torn tail: a crash interrupted an append here (the writer
                # emits ASCII only, so rotted bytes land here too).
                dropped += len(body) - i
                break
            if record["seq"] > journal_seq:
                dropped += 1
                continue  # beyond the last durable checkpoint: re-run instead
            records.append(record)
        if dropped:
            logger.info(
                "journal recovery dropped %d record(s) past seq %d",
                dropped,
                journal_seq,
            )
            METRICS.counter("controller.journal_tail_dropped").add(dropped)
        instance = cls(
            path,
            run_name=header.get("run_name", "controller"),
            meta=header.get("meta") or None,
        )
        instance.journal.resume_from(records)
        instance._written = len(records)
        atomic_write_text(path, instance._render())
        instance._fh = open(path, "a", encoding="ascii")
        return instance

    def _render(self) -> str:
        lines = [json.dumps(self.journal.header(), **_JSON_COMPACT)]
        lines.extend(
            json.dumps(record, **_JSON_COMPACT) for record in self.journal.records
        )
        return "\n".join(lines) + "\n"

    # -- recording ----------------------------------------------------------

    def event(self, event_type: str, **fields: Any) -> None:
        self.journal.record_event(event_type, **fields)

    @property
    def last_seq(self) -> int:
        """Sequence of the newest record (-1 while empty)."""
        return self.journal._seq - 1

    def sync(self) -> None:
        """Append every unwritten record, then flush and fsync."""
        if self._fh is None:
            raise RuntimeError("journal not started (call start() or resume())")
        for record in self.journal.records[self._written:]:
            self._fh.write(json.dumps(record, **_JSON_COMPACT) + "\n")
        self._written = len(self.journal.records)
        self._fsync()

    def tear(self) -> None:
        """Crash-injection helper: flush a deliberately torn half-record.

        Simulates the kernel persisting only part of an append before the
        process died; :meth:`resume` must drop the fragment.
        """
        if self._fh is None:
            raise RuntimeError("journal not started")
        pending = self.journal.records[self._written:]
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
        if self._fh is not None:
            try:
                self.sync()
            finally:
                self._fh.close()
                self._fh = None
