"""Typed world deltas: the controller's input vocabulary.

A delta describes one observable change of the world at a point in time:
a user group's traffic volume moving, a peering session dropping or
returning, a whole PoP going dark or coming back.  Deltas are frozen
dataclasses with a stable JSON round-trip, so a stream can be replayed
byte-identically — the property every crash-recovery guarantee of
:mod:`repro.controller` is built on.

Streams come from three places:

* :func:`synthetic_deltas` — a seeded random workload for experiments
  and soak runs;
* :func:`deltas_from_fault_schedule` — :class:`repro.faults.PopOutage`
  windows translated into paired :class:`PopDown`/:class:`PopUp` deltas;
* :func:`load_deltas` — a JSON document written by :func:`save_deltas`
  (or by hand).

:func:`group_deltas` buckets a stream by timestamp; the controller
consumes one bucket per iteration.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from repro.io import atomic_write_text

PathLike = Union[str, Path]

#: Bump when the delta-stream document schema changes incompatibly.
DELTA_STREAM_VERSION = 1
_STREAM_KIND = "painter-delta-stream"


class DeltaError(ValueError):
    """Raised for malformed delta documents or streams."""


def _check_id(name: str, value: Any) -> None:
    """Ids and epochs are non-negative ``int``s — never ``bool``s, which
    as dict keys would silently stand for 0 and 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DeltaError(f"{name} must be an int, not {value!r}")
    if value < 0:
        raise DeltaError(f"{name} must be non-negative")


@dataclass(frozen=True)
class Delta:
    """Base class: one world change applied at ``at_s`` seconds."""

    at_s: float

    def __post_init__(self) -> None:
        at_s = self.at_s
        if (
            isinstance(at_s, bool)
            or not isinstance(at_s, (int, float))
            or not (math.isfinite(at_s) and at_s >= 0)
        ):
            raise DeltaError(f"at_s must be a finite non-negative number, not {at_s!r}")

    def describe(self) -> str:
        return f"{type(self).__name__}@{self.at_s:g}s"


@dataclass(frozen=True)
class VolumeShift(Delta):
    """One UG's traffic volume changes to an absolute new value."""

    ug_id: int = 0
    volume: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_id("ug_id", self.ug_id)
        if not (math.isfinite(self.volume) and self.volume >= 0):
            raise DeltaError("volume must be a finite non-negative number")

    def describe(self) -> str:
        return f"VolumeShift@{self.at_s:g}s[ug {self.ug_id} -> {self.volume:g}]"


@dataclass(frozen=True)
class _PeeringDelta(Delta):
    peering_id: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_id("peering_id", self.peering_id)


@dataclass(frozen=True)
class PeeringDown(_PeeringDelta):
    """A peering session drops (administrative or failure)."""


@dataclass(frozen=True)
class PeeringUp(_PeeringDelta):
    """A previously dropped peering session returns."""


@dataclass(frozen=True)
class _PopDelta(Delta):
    pop_name: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.pop_name, str) or not self.pop_name:
            raise DeltaError(f"pop_name must be a non-empty string, not {self.pop_name!r}")


@dataclass(frozen=True)
class PopDown(_PopDelta):
    """A whole PoP (every peering at it) goes dark."""


@dataclass(frozen=True)
class PopUp(_PopDelta):
    """A dark PoP comes back."""


@dataclass(frozen=True)
class LinkWeightShift(Delta):
    """The cloud's intra-domain link weights move to a new epoch.

    The epoch indexes a :class:`repro.egress.coexistence.LinkWeightEpochs`
    schedule; it shifts hot-potato egress costs (and the MEDs that mirror
    them) without changing reachability, so PAINTER's advertisements are
    unaffected while MED-steered ingress choices may flip.
    """

    epoch: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_id("epoch", self.epoch)

    def describe(self) -> str:
        return f"LinkWeightShift@{self.at_s:g}s[epoch {self.epoch}]"


_DELTA_TYPES: Dict[str, type] = {
    "volume_shift": VolumeShift,
    "peering_down": PeeringDown,
    "peering_up": PeeringUp,
    "pop_down": PopDown,
    "pop_up": PopUp,
    "link_weight_shift": LinkWeightShift,
}
_TYPE_NAMES = {cls: name for name, cls in _DELTA_TYPES.items()}


def delta_to_dict(delta: Delta) -> Dict[str, Any]:
    """One delta as a plain JSON-ready dict (``type`` tag + fields)."""
    name = _TYPE_NAMES.get(type(delta))
    if name is None:
        raise DeltaError(f"unknown delta type {type(delta)!r}")
    document: Dict[str, Any] = {"type": name, "at_s": delta.at_s}
    if isinstance(delta, VolumeShift):
        document["ug_id"] = delta.ug_id
        document["volume"] = delta.volume
    elif isinstance(delta, _PeeringDelta):
        document["peering_id"] = delta.peering_id
    elif isinstance(delta, LinkWeightShift):
        document["epoch"] = delta.epoch
    else:
        document["pop_name"] = delta.pop_name
    return document


def delta_from_dict(document: Dict[str, Any]) -> Delta:
    """Inverse of :func:`delta_to_dict`, with validation."""
    if not isinstance(document, dict):
        raise DeltaError(f"delta must be an object, got {type(document)!r}")
    name = document.get("type")
    cls = _DELTA_TYPES.get(name)
    if cls is None:
        raise DeltaError(f"unknown delta type {name!r}")
    fields = {k: v for k, v in document.items() if k != "type"}
    try:
        return cls(**fields)
    except (TypeError, DeltaError) as exc:
        raise DeltaError(f"malformed {name} delta: {exc}") from exc


def save_deltas(deltas: Sequence[Delta], path: PathLike) -> None:
    """Persist a delta stream (crash-safe, like every ``save_*``)."""
    document = {
        "kind": _STREAM_KIND,
        "version": DELTA_STREAM_VERSION,
        "deltas": [delta_to_dict(d) for d in deltas],
    }
    atomic_write_text(path, json.dumps(document, indent=2))


def load_deltas(path: PathLike) -> List[Delta]:
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict) or document.get("kind") != _STREAM_KIND:
        raise DeltaError(f"{path!s} is not a delta stream document")
    if document.get("version") != DELTA_STREAM_VERSION:
        raise DeltaError(
            f"unsupported delta stream version {document.get('version')!r}"
        )
    deltas = document.get("deltas")
    if not isinstance(deltas, list):
        raise DeltaError("delta stream 'deltas' must be a list")
    return [delta_from_dict(d) for d in deltas]


def group_deltas(
    deltas: Iterable[Delta],
) -> List[Tuple[float, List[Delta]]]:
    """Bucket a stream by timestamp (one bucket = one controller iteration).

    Within a bucket the input order is preserved, so the application
    order — which matters for repeated shifts of the same UG — is exactly
    the stream order.
    """
    ordered = sorted(deltas, key=lambda d: d.at_s)
    groups: List[Tuple[float, List[Delta]]] = []
    for delta in ordered:
        if groups and groups[-1][0] == delta.at_s:
            groups[-1][1].append(delta)
        else:
            groups.append((delta.at_s, [delta]))
    return groups


def synthetic_deltas(
    scenario,
    *,
    iterations: int = 8,
    seed: int = 0,
    interval_s: float = 60.0,
    volume_shifts_per_iteration: int = 2,
    peering_flap_prob: float = 0.25,
    pop_outage_prob: float = 0.1,
    outage_iterations: int = 2,
) -> List[Delta]:
    """A seeded, reproducible delta workload over ``scenario``.

    Each iteration carries a couple of UG volume shifts (log-uniform
    rescaling of the *initial* volume, so the stream is a pure function
    of the seed); occasionally a peering drops (returning
    ``outage_iterations`` later) or a whole PoP goes dark the same way.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    rng = random.Random(seed)
    initial_volumes = {ug.ug_id: ug.volume for ug in scenario.user_groups}
    ug_ids = sorted(initial_volumes)
    peering_ids = sorted(p.peering_id for p in scenario.deployment.peerings)
    pop_names = sorted(p.name for p in scenario.deployment.pops)
    deltas: List[Delta] = []
    down_peerings: set = set()
    down_pops: set = set()
    for i in range(iterations):
        at_s = (i + 1) * interval_s
        for _ in range(volume_shifts_per_iteration):
            ug_id = rng.choice(ug_ids)
            factor = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            deltas.append(
                VolumeShift(
                    at_s=at_s,
                    ug_id=ug_id,
                    volume=initial_volumes[ug_id] * factor,
                )
            )
        if peering_ids and rng.random() < peering_flap_prob:
            candidates = [p for p in peering_ids if p not in down_peerings]
            if candidates:
                pid = rng.choice(candidates)
                down_peerings.add(pid)
                deltas.append(PeeringDown(at_s=at_s, peering_id=pid))
                up_at = at_s + outage_iterations * interval_s
                if up_at <= iterations * interval_s:
                    deltas.append(PeeringUp(at_s=up_at, peering_id=pid))
        if pop_names and rng.random() < pop_outage_prob:
            candidates = [p for p in pop_names if p not in down_pops]
            # Never darken the last healthy PoP: an all-dark deployment
            # has no candidate peerings at all.
            if len(candidates) > 1:
                name = rng.choice(candidates)
                down_pops.add(name)
                deltas.append(PopDown(at_s=at_s, pop_name=name))
                up_at = at_s + outage_iterations * interval_s
                if up_at <= iterations * interval_s:
                    deltas.append(PopUp(at_s=up_at, pop_name=name))
    return sorted(deltas, key=lambda d: d.at_s)


def deltas_from_fault_schedule(schedule, *, interval_s: float = 1.0) -> List[Delta]:
    """Translate a :class:`repro.faults.FaultSchedule` into deltas.

    Only whole-PoP events have a controller-level meaning today:
    :class:`repro.faults.PopOutage` becomes a :class:`PopDown` at its
    start and — when the outage heals — a :class:`PopUp` at its end.
    Other event types target layers below the controller (probe loss,
    latency spikes, worker crashes) and are skipped.  ``interval_s``
    exists for symmetry with :func:`synthetic_deltas` and scales
    nothing; timestamps come straight from the schedule.
    """
    from repro.faults.events import PopOutage

    deltas: List[Delta] = []
    for event in schedule.events:
        if not isinstance(event, PopOutage):
            continue
        deltas.append(PopDown(at_s=event.start_s, pop_name=event.pop_name))
        if not math.isinf(event.end_s):
            deltas.append(PopUp(at_s=event.end_s, pop_name=event.pop_name))
    return sorted(deltas, key=lambda d: d.at_s)


def link_weight_deltas(
    n_epochs: int, *, interval_s: float = 60.0
) -> List[Delta]:
    """One :class:`LinkWeightShift` per epoch after the first.

    Epoch 0 is the initial state (no delta); epoch ``k`` (k >= 1) lands at
    ``k * interval_s``.  A single-epoch schedule yields an empty stream —
    the frozen-epoch case.
    """
    if n_epochs < 1:
        raise DeltaError("need at least one epoch")
    return [
        LinkWeightShift(at_s=epoch * interval_s, epoch=epoch)
        for epoch in range(1, n_epochs)
    ]
