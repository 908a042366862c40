"""Crash-safe controller checkpoints.

:class:`CheckpointStore` keeps versioned, content-hashed snapshots of the
controller's full resume state, one file per iteration
(``checkpoint-00000042.json``), written through
``repro.io.atomic_write_text``'s write-temp / fsync / rename contract.
Loads verify the SHA-256 of the payload, and a corrupt file is *skipped*
(with a warning), falling back to the previous durable checkpoint instead
of refusing to start.  Each payload carries the ``journal_seq`` it vouches
for; the run journal itself is a durable
:class:`repro.telemetry.RunJournal` (``RunJournal.create`` /
``RunJournal.resume``).
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.io import atomic_write_text
from repro.telemetry import METRICS

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

#: Bump when the checkpoint payload schema changes incompatibly.
CHECKPOINT_VERSION = 1
_CHECKPOINT_KIND = "painter-controller-checkpoint"
_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})\.json$")
_JSON_COMPACT = {"sort_keys": True, "separators": (",", ":")}


class CheckpointError(ValueError):
    """Raised for malformed, mismatched, or corrupted checkpoints."""


def _digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _payload_digest(payload: Dict[str, Any]) -> str:
    return _digest(json.dumps(payload, **_JSON_COMPACT))


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
        # The payload is serialised once: its canonical dump is both what
        # the hash covers and what the compact envelope embeds, so the file
        # is ``json.dumps(envelope, **_JSON_COMPACT)``.
        canonical = json.dumps(payload, **_JSON_COMPACT)
        shell = json.dumps(
            {
                "kind": _CHECKPOINT_KIND,
                "version": CHECKPOINT_VERSION,
                "seq": seq,
                "sha256": _digest(canonical),
                "payload": None,
            },
            **_JSON_COMPACT,
        )
        path = self.path_for(seq)
        atomic_write_text(
            path, shell.replace('"payload":null', '"payload":' + canonical, 1)
        )
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
