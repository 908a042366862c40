"""Serialization: persist configurations and experiment artifacts as JSON.

An operator running the Advertisement Orchestrator wants to version its
outputs: the configuration that is live, the routing model's learned state,
and the experiment tables backing a rollout decision.  Everything here
round-trips through plain JSON — no pickle, no custom binary formats.

Every ``save_*`` function is **crash-safe**: the document is written to a
temporary file in the destination directory, flushed and fsync'd, and then
atomically renamed over the target (:func:`atomic_write_text`).  A process
killed mid-save leaves the previous file intact — the durability contract
the continuous controller (:mod:`repro.controller`) builds its checkpoint
store on.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.advertisement import AdvertisementConfig
from repro.core.routing_model import RoutingModel
from repro.experiments.harness import ExperimentResult

PathLike = Union[str, Path]

_CONFIG_KIND = "painter-advertisement-config"
_MODEL_KIND = "painter-routing-model"
_EXPERIMENT_KIND = "painter-experiment-result"
_FORMAT_VERSION = 1
#: Routing-model documents grew outcomes + counters in version 2; version 1
#: files (preferences only) still load.
_MODEL_FORMAT_VERSION = 2


class SerializationError(ValueError):
    """Raised for malformed or mismatched documents."""


def atomic_write_text(path: PathLike, text: str) -> None:
    """Durably replace ``path`` with ``text`` (write-temp, fsync, rename).

    The temporary file lives in the same directory as the target so the
    final :func:`os.replace` is an atomic rename on every POSIX filesystem;
    the file is fsync'd before the rename and the directory after it, so a
    crash at any instant leaves either the complete old file or the
    complete new one — never a torn mix.
    """
    target = Path(path)
    directory = target.parent
    fd, tmp_name = tempfile.mkstemp(
        dir=str(directory) or ".", prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(directory)


def _fsync_directory(directory: Path) -> None:
    """Persist a rename by fsyncing its directory (best-effort off POSIX)."""
    try:
        dir_fd = os.open(str(directory) or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - filesystems rejecting dir fsync
        pass
    finally:
        os.close(dir_fd)


def _check_header(
    document: Dict[str, Any], kind: str, versions: tuple = (_FORMAT_VERSION,)
) -> None:
    if not isinstance(document, dict):
        raise SerializationError("document must be a JSON object")
    if document.get("kind") != kind:
        raise SerializationError(
            f"expected kind {kind!r}, got {document.get('kind')!r}"
        )
    if document.get("version") not in versions:
        raise SerializationError(f"unsupported version {document.get('version')!r}")


# -- advertisement configurations ------------------------------------------


def config_to_dict(config: AdvertisementConfig) -> Dict[str, Any]:
    return {
        "kind": _CONFIG_KIND,
        "version": _FORMAT_VERSION,
        "prefixes": {
            str(prefix): sorted(config.peerings_for(prefix))
            for prefix in config.prefixes
        },
    }


def config_from_dict(document: Dict[str, Any]) -> AdvertisementConfig:
    _check_header(document, _CONFIG_KIND)
    prefixes = document.get("prefixes")
    if not isinstance(prefixes, dict):
        raise SerializationError("missing 'prefixes' mapping")
    config = AdvertisementConfig()
    for prefix_str, peering_ids in prefixes.items():
        try:
            prefix = int(prefix_str)
        except ValueError:
            raise SerializationError(f"bad prefix key {prefix_str!r}") from None
        if not isinstance(peering_ids, list):
            raise SerializationError(f"peerings of {prefix_str} must be a list")
        for pid in peering_ids:
            if not isinstance(pid, int):
                raise SerializationError(f"bad peering id {pid!r}")
            config.add(prefix, pid)
    return config


def save_config(config: AdvertisementConfig, path: PathLike) -> None:
    atomic_write_text(path, json.dumps(config_to_dict(config), indent=2))


def load_config(path: PathLike) -> AdvertisementConfig:
    return config_from_dict(json.loads(Path(path).read_text()))


# -- experiment results ----------------------------------------------------------


def experiment_result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    return {
        "kind": _EXPERIMENT_KIND,
        "version": _FORMAT_VERSION,
        "experiment_id": result.experiment_id,
        "title": result.title,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "notes": list(result.notes),
    }


def experiment_result_from_dict(document: Dict[str, Any]) -> ExperimentResult:
    _check_header(document, _EXPERIMENT_KIND)
    try:
        result = ExperimentResult(
            experiment_id=str(document["experiment_id"]),
            title=str(document["title"]),
            columns=[str(c) for c in document["columns"]],
        )
        for row in document["rows"]:
            result.add_row(*row)
        for note in document.get("notes", []):
            result.add_note(str(note))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad experiment document: {exc}") from exc
    return result


def save_experiment_result(result: ExperimentResult, path: PathLike) -> None:
    atomic_write_text(path, json.dumps(experiment_result_to_dict(result), indent=2))


def load_experiment_result(path: PathLike) -> ExperimentResult:
    return experiment_result_from_dict(json.loads(Path(path).read_text()))


# -- routing-model preference state ------------------------------------------


def routing_model_to_dict(model: RoutingModel) -> Dict[str, Any]:
    snapshot = model.snapshot_preferences()
    return {
        "kind": _MODEL_KIND,
        "version": _MODEL_FORMAT_VERSION,
        "d_reuse_km": model.d_reuse_km,
        "preferences": {
            str(ug_id): sorted(
                [list(pair) + [sorted(context)] for pair, context in pairs.items()]
            )
            for ug_id, pairs in snapshot["preferences"].items()
        },
        "outcomes": sorted(
            [int(ug_id), sorted(int(p) for p in compliant), int(actual)]
            for (ug_id, compliant), actual in snapshot["outcomes"].items()
        ),
        "observation_count": snapshot["observation_count"],
        "stale_observation_count": snapshot["stale_observation_count"],
    }


def restore_routing_model(model: RoutingModel, document: Dict[str, Any]) -> None:
    """Load saved learned state into an existing model (catalog-bound).

    Accepts both version-2 documents (preferences + outcome memory +
    counters) and legacy version-1 documents (preferences only).  Anything
    the model's catalog does not have — an unknown UG, peering or peer
    ASN, a self-pair — raises :class:`SerializationError` and leaves the
    model unchanged.
    """
    _check_header(document, _MODEL_KIND, versions=(1, _MODEL_FORMAT_VERSION))
    preferences = document.get("preferences")
    if not isinstance(preferences, dict):
        raise SerializationError("missing 'preferences' mapping")
    try:
        preference_state = {
            int(ug_id): {
                (int(w), int(l)): frozenset(int(a) for a in context)
                for w, l, context in pairs
            }
            for ug_id, pairs in preferences.items()
        }
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad preference pairs: {exc}") from exc
    try:
        outcomes = {
            (int(ug_id), frozenset(int(p) for p in compliant)): int(actual)
            for ug_id, compliant, actual in document.get("outcomes", [])
        }
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad outcome entries: {exc}") from exc
    try:
        model.restore_preferences(
            {
                "version": 2,
                "preferences": preference_state,
                "outcomes": outcomes,
                "observation_count": int(document.get("observation_count", 0)),
                "stale_observation_count": int(
                    document.get("stale_observation_count", 0)
                ),
            }
        )
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad routing-model state: {exc}") from exc
