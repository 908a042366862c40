"""The soak harness: a simulated day through every subsystem at once.

:func:`run_soak` composes the pieces the repo has grown separately into
one long-running scenario:

* :class:`~repro.soak.load.DiurnalLoad` generates per-metro diurnal
  demand with flash crowds and the :class:`VolumeShift` stream the
  controller re-solves under;
* :func:`regional_storm` schedules rolling regional PoP outages
  (:class:`repro.faults.PopOutage`), translated through
  :func:`repro.controller.deltas_from_fault_schedule` into the same
  stream;
* the :class:`repro.controller.PainterController` daemon ingests the
  merged stream — one timestamp bucket per simulated window — and
  warm-re-solves online with crash-safe checkpointing;
* a :class:`SoakDriver` (a :class:`repro.controller.ControllerExtension`)
  rides every iteration: it drives the
  :class:`~repro.traffic_manager.dataplane.VectorFlowTable` data plane
  with the window's flow batch, steers per-UG destination selection
  through a hysteretic :class:`SelectorBank`, fails flows over off dead
  prefixes, and folds the window into an :class:`SLOLedger`.

Alignment invariant: window *k* spans ``[k·window_s, (k+1)·window_s)``
and is simulated by controller iteration *k*; the delta stream must have
exactly one timestamp bucket per boundary ``k·window_s`` (k ≥ 1), which
the load model guarantees and :func:`run_soak` verifies — storm events
are snapped to window boundaries so they merge into existing buckets.

Determinism contract: everything that feeds the journal, the checkpoint,
or the ledger is a pure function of the seed; wall-clock readings only
feed the metrics registry and the throughput figures on
:class:`SoakResult`.  Identical seeds therefore produce byte-identical
journals and bit-identical ledger fingerprints — including across a
SIGKILL/resume cycle.  The controller checkpoint carries what cannot be
re-derived (selector bank, ledger, and each live window's selections
and remaps); the data plane is not stored but rebuilt on resume by
replaying the windows whose flows are still live, since a window's
batch is a pure function of (seed, window).
"""

from __future__ import annotations

import json
import math
import random
import tempfile
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.controller import (
    ControllerConfig,
    ControllerExtension,
    ControllerResult,
    Delta,
    PainterController,
    deltas_from_fault_schedule,
    group_deltas,
)
from repro.controller.daemon import _CRASH_POINTS
from repro.core.advertisement import AdvertisementConfig
from repro.core.orchestrator import OrchestratorConfig
from repro.faults.events import PopOutage
from repro.faults.schedule import FaultSchedule
from repro.io import atomic_write_text
from repro.scenario import PRESETS
from repro.soak.load import DiurnalLoad
from repro.soak.slo import SLOLedger, _decode_array, _encode_array
from repro.telemetry import METRICS, TRACER
from repro.traffic_manager.dataplane import FlowBatch, VectorFlowTable
from repro.traffic_manager.selection import SelectorBank

PathLike = Union[str, Path]

#: Bump when the driver's checkpoint payload schema changes incompatibly.
SOAK_SNAPSHOT_VERSION = 2


class SoakError(RuntimeError):
    """Soak configuration or alignment failure."""


@dataclass(frozen=True)
class SoakConfig:
    """Everything that parameterizes one :func:`run_soak`."""

    #: Scenario preset, a key of :data:`repro.scenario.PRESETS`.
    preset: str = "tiny"
    seed: int = 0
    #: Simulated windows (= controller iterations); one simulated day is
    #: ``windows * window_s`` seconds.
    windows: int = 24
    #: Simulated seconds per window.
    window_s: float = 3600.0
    #: Base new-flow arrivals per window (scaled by the diurnal curve).
    arrivals_per_window: int = 10_000
    #: Windows a flow lives before it ends (0 = flows never end).
    flow_lifetime_windows: int = 2
    prefix_budget: int = 4
    #: Data plane: ``vector``, the only one (kept so existing callers and
    #: checkpoints naming it stay valid).
    plane: str = "vector"
    #: Top-mover VolumeShifts emitted per window boundary.
    shifts_per_window: int = 8
    #: Regions hit by the rolling storm (0 = calm weather).
    storm_regions: int = 1
    flash_crowds: int = 1
    #: Admission cap per window (None = unlimited); overflow is shed.
    admit_cap: Optional[int] = None
    #: Destination switches per UG the SLO budget allows.
    failover_budget: int = 8
    #: Cold-verify the warm solver every N iterations (0 = never).
    verify_every: int = 0
    #: Run the orchestrator's measurement round each iteration.
    observe: bool = False
    #: Install changed configs through the Traffic Manager.
    install: bool = True
    checkpoint_keep: int = 3
    #: Write the Prometheus metrics textfile here after every window.
    prom_path: Optional[str] = None
    #: Crash injection (SIGKILL) for recovery tests — see ControllerConfig.
    crash_at: Optional[int] = None
    crash_point: str = "before_checkpoint"
    #: Stop after this many iterations (None = the whole day); a later
    #: run over the same checkpoint dir resumes where this one stopped.
    stop_after: Optional[int] = None

    def __post_init__(self) -> None:
        # Counts: a non-bool int no smaller than its minimum (``None``
        # allowed where the field is optional).
        for name, minimum in (
            ("seed", 0),
            ("windows", 1),
            ("arrivals_per_window", 0),
            ("flow_lifetime_windows", 0),
            ("prefix_budget", 1),
            ("shifts_per_window", 1),
            ("storm_regions", 0),
            ("flash_crowds", 0),
            ("admit_cap", 0),
            ("failover_budget", 0),
            ("verify_every", 0),
            ("checkpoint_keep", 1),
            ("crash_at", 0),
            ("stop_after", 1),
        ):
            value = getattr(self, name)
            if value is None and name in ("admit_cap", "crash_at", "stop_after"):
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {value!r}")
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, not {value}")
        # The one real: finite, non-bool, positive.
        value = self.window_s
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not math.isfinite(value)
        ):
            raise ValueError(f"window_s must be a finite number, not {value!r}")
        if value <= 0:
            raise ValueError(f"window_s is out of range: {value!r}")
        for name in ("observe", "install"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool")
        if not isinstance(self.preset, str) or self.preset not in PRESETS:
            raise ValueError(f"preset must be one of {sorted(PRESETS)}")
        if self.plane != "vector":
            raise ValueError(f"plane must be 'vector', not {self.plane!r}")
        if self.crash_point not in _CRASH_POINTS:
            raise ValueError(f"crash_point must be one of {_CRASH_POINTS}")
        if self.prom_path is not None and not isinstance(self.prom_path, str):
            raise ValueError("prom_path must be a str or None")

    def pinned(self) -> Dict[str, Any]:
        """The fields a checkpoint's windows were simulated under: all but
        the run-control ones, which a resume may change."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("prom_path", "crash_at", "crash_point", "stop_after")
        }

    @property
    def day_s(self) -> float:
        return self.windows * self.window_s


def make_load(scenario, cfg: SoakConfig) -> DiurnalLoad:
    return DiurnalLoad(
        scenario,
        seed=cfg.seed,
        windows=cfg.windows,
        window_s=cfg.window_s,
        base_arrivals=cfg.arrivals_per_window,
        flash_crowds=cfg.flash_crowds,
    )


def regional_storm(
    scenario,
    *,
    seed: int,
    windows: int,
    window_s: float,
    regions: int = 1,
    outage_windows: int = 2,
    stagger_windows: int = 1,
) -> FaultSchedule:
    """A seeded rolling regional outage storm, snapped to window boundaries.

    Picks up to ``regions`` cloud regions (always leaving at least one
    region untouched so the deployment never goes fully dark) and rolls a
    :class:`PopOutage` across each chosen region's PoPs, staggered
    ``stagger_windows`` apart.  Every outage starts and heals exactly on
    a window boundary no later than ``windows - 1``, so its deltas merge
    into the load model's existing timestamp buckets instead of creating
    misaligned ones.
    """
    if regions < 1 or windows < 3:
        return FaultSchedule()
    by_region: Dict[str, List[str]] = {}
    for pop in scenario.deployment.pops:
        by_region.setdefault(pop.metro.region, []).append(pop.name)
    region_names = sorted(by_region)
    if len(region_names) < 2:
        return FaultSchedule()  # a single-region world has no safe storm
    rng = random.Random(seed)
    chosen = rng.sample(region_names, min(regions, len(region_names) - 1))
    events: List[PopOutage] = []
    for region in sorted(chosen):
        pops = sorted(by_region[region])
        first = rng.randrange(1, max(2, windows - outage_windows))
        for i, pop_name in enumerate(pops):
            start = first + i * stagger_windows
            end = min(start + outage_windows, windows - 1)
            if start >= windows - 1 or end <= start:
                continue
            events.append(
                PopOutage(
                    start_s=start * window_s,
                    pop_name=pop_name,
                    duration_s=(end - start) * window_s,
                )
            )
    return FaultSchedule(events=tuple(events))


class SoakDriver(ControllerExtension):
    """The soak co-processor: data plane + selection + SLO accounting.

    Rides every controller iteration (= one simulated window).  The
    checkpoint carries what cannot be re-derived — the selector bank, the
    ledger, the per-UG switch counters, and for every window that may
    still hold live flows its per-UG selection and the remaps it applied.
    The flow table is rebuilt from those on :meth:`restore` by replaying
    the windows' data-plane calls, so checkpoint size follows windows and
    user groups, not flows.  The throughput accumulators
    (:attr:`flows_forwarded`, :attr:`forward_wall_s`) are deliberately
    wall-clock-derived and excluded.
    """

    def __init__(self, scenario, cfg: SoakConfig, load: DiurnalLoad) -> None:
        self._scenario = scenario
        self._cfg = cfg
        self._load = load
        self._ugs = list(scenario.user_groups)
        self._n = len(self._ugs)
        self._plane = self._new_plane()
        #: The windows whose flows may still be live, oldest first: each
        #: one's index, per-UG selected prefix id (-1 = none) and applied
        #: ``(dead, target)`` prefix-id remap pairs.
        self._live: List[Tuple[int, np.ndarray, List[Tuple[int, int]]]] = []
        self._bank = SelectorBank()
        self._ledger = SLOLedger(
            self._n,
            window_s=cfg.window_s,
            failover_budget=cfg.failover_budget,
        )
        self._prev_switches = np.zeros(self._n, dtype=np.int64)
        self.flows_forwarded = 0
        self.forward_wall_s = 0.0
        self.remaps = 0
        self.flows_moved = 0

    @property
    def ledger(self) -> SLOLedger:
        return self._ledger

    @property
    def plane(self):
        return self._plane

    @property
    def bank(self) -> SelectorBank:
        return self._bank

    def _new_plane(self) -> VectorFlowTable:
        return VectorFlowTable()

    # -- per-window work -------------------------------------------------------

    @staticmethod
    def prefix_label(peering_ids) -> str:
        """Content-addressed data-plane name for a config prefix — stable
        across re-solves, unlike per-config prefix indices."""
        return "px-" + "-".join(str(p) for p in sorted(peering_ids))

    def _latency_columns(self, config: AdvertisementConfig, disabled):
        """(names, matrix) — per-prefix live-latency columns, deduped by
        content label (first occurrence wins)."""
        names: List[str] = []
        live_sets: List[frozenset] = []
        for pid in config.prefixes:
            peerings = config.peerings_for(pid)
            name = self.prefix_label(peerings)
            if name in names:
                continue
            names.append(name)
            live_sets.append(frozenset(p for p in peerings if p not in disabled))
        return names, self._scenario.routing.latencies(self._ugs, live_sets)

    def _admitted_batch(self, window: int) -> FlowBatch:
        """The batch actually admitted during ``window`` (cap applied)."""
        return self._capped(self._load.batch(window))

    def _capped(self, batch: FlowBatch) -> FlowBatch:
        """``batch`` with its flows past the admit cap (flash-crowd
        overflow) shed."""
        cap = self._cfg.admit_cap
        if cap is not None and len(batch) > cap:
            batch = FlowBatch(
                keys=batch.keys[:cap],
                service_ids=batch.service_ids[:cap],
                payload_bytes=batch.payload_bytes[:cap],
            )
        return batch

    def after_iteration(
        self, iteration: int, config: AdvertisementConfig, controller
    ) -> None:
        window = iteration
        cfg = self._cfg
        n = self._n
        with TRACER.span("soak.window", window=window):
            disabled = controller.orchestrator.disabled_peerings
            names, matrix = self._latency_columns(config, disabled)
            col_of = {name: j for j, name in enumerate(names)}
            selections = self._bank.update_matrix(names, matrix)

            # Failover: flows pinned to a destination with no live route
            # move, replay-style, onto the fleet's most popular live
            # destination (deterministic tie-break by name).
            live_names = {
                names[j]
                for j in range(len(names))
                if np.isfinite(matrix[:, j]).any()
            }
            remaps = 0
            moved = 0
            pairs: List[Tuple[int, int]] = []
            if live_names:
                votes: Dict[str, int] = {}
                for chosen in selections.values():
                    if chosen in live_names:
                        votes[chosen] = votes.get(chosen, 0) + 1
                if votes:
                    target = min(votes, key=lambda k: (-votes[k], k))
                else:
                    target = min(live_names)
                for dead, count in sorted(self._plane.destinations().items()):
                    if dead not in live_names and dead != target and count:
                        moved += self._plane.remap(dead, target)
                        remaps += 1
                        pairs.append(
                            (self._plane.prefix_id(dead), self._plane.prefix_id(target))
                        )
            self.remaps += remaps
            self.flows_moved += moved

            # Offer the window's arrivals (flash-crowd overflow is shed).
            full = self._load.batch(window)
            offered = np.bincount(
                full.service_ids, minlength=n
            ).astype(np.int64)
            batch = self._capped(full)
            shed = np.zeros(n, dtype=np.int64)
            if len(batch) < len(full):
                shed = np.bincount(
                    full.service_ids[len(batch):], minlength=n
                ).astype(np.int64)
            started = time.perf_counter()
            fr = self._plane.forward(
                batch, selections, now_s=window * cfg.window_s
            )
            elapsed = time.perf_counter() - started
            self.flows_forwarded += len(batch)
            self.forward_wall_s += elapsed

            served = np.bincount(
                batch.service_ids[fr.assignments >= 0], minlength=n
            ).astype(np.int64)
            unroutable = np.bincount(
                batch.service_ids[fr.assignments < 0], minlength=n
            ).astype(np.int64)

            # Expire flows admitted flow_lifetime windows ago — the load
            # model regenerates that window's keys instead of storing them.
            ended = 0
            lifetime = cfg.flow_lifetime_windows
            if lifetime and window >= lifetime:
                ended = self._plane.end(
                    self._admitted_batch(window - lifetime).keys
                )

            # What a resume replays this window with; ``forward`` has
            # interned every selected name, so these are lookups.
            picks = (selections[sid] for sid in range(n))
            chosen_ids = np.array(
                [-1 if name is None else self._plane.prefix_id(name) for name in picks],
                dtype=np.int32,
            )
            self._live.append((window, chosen_ids, pairs))
            if lifetime:
                del self._live[:-lifetime]

            # Fold the window into the ledger.
            latency = np.full(n, np.inf)
            up = np.zeros(n, dtype=bool)
            for sid, chosen in selections.items():
                if chosen is not None:
                    up[sid] = True
                    latency[sid] = matrix[sid, col_of[chosen]]
            switches_now = np.fromiter(
                (self._bank.selector(i).switch_count for i in range(n)),
                dtype=np.int64,
                count=n,
            )
            switch_delta = switches_now - self._prev_switches
            self._prev_switches = switches_now
            self._ledger.observe_window(
                window,
                offered=offered,
                served=served,
                unroutable=unroutable,
                shed=shed,
                latency_ms=latency,
                up_mask=up,
                switches=switch_delta,
                remaps=remaps,
            )

            # Deterministic journal record of the window.
            journal = controller.journal
            if journal is not None:
                journal.record_event(
                    "soak_window",
                    window=window,
                    offered=int(offered.sum()),
                    served=int(served.sum()),
                    unroutable=int(unroutable.sum()),
                    shed=int(shed.sum()),
                    ended=int(ended),
                    remapped=int(moved),
                    live_flows=int(self._plane.flow_count()),
                    down_ugs=int((~up).sum()),
                    switches=int(switch_delta.sum()),
                    accounting_errors=int(self._ledger.accounting_errors),
                )

            # Live telemetry (wall-clock values allowed here, and only here).
            METRICS.gauge("soak.window").set(window)
            METRICS.counter("soak.flows_offered").add(int(offered.sum()))
            METRICS.counter("soak.flows_served").add(int(served.sum()))
            METRICS.counter("soak.flows_unroutable").add(int(unroutable.sum()))
            METRICS.counter("soak.flows_shed").add(int(shed.sum()))
            METRICS.counter("soak.flows_remapped").add(moved)
            METRICS.gauge("soak.live_flows").set(self._plane.flow_count())
            METRICS.gauge("soak.down_ugs").set(int((~up).sum()))
            METRICS.gauge("soak.accounting_errors").set(
                self._ledger.accounting_errors
            )
            if elapsed > 0:
                METRICS.gauge("soak.forward_flows_per_s").set(
                    len(batch) / elapsed
                )
            if cfg.prom_path:
                self._export_prometheus(cfg.prom_path)

    @staticmethod
    def _export_prometheus(path: str) -> None:
        """Atomic textfile export (node_exporter textfile-collector style)."""
        atomic_write_text(path, METRICS.to_prometheus())

    # -- checkpoint round-trip -------------------------------------------------

    def _pins(self) -> Dict[str, Any]:
        pins = self._cfg.pinned()
        pins["user_groups"] = self._n
        return pins

    def _prefix_names(self) -> List[str]:
        """The plane's interned prefix names, in id order."""
        names: List[str] = []
        while True:
            try:
                names.append(self._plane.prefix_name(len(names)))
            except KeyError:
                return names

    def snapshot(self) -> Dict[str, Any]:
        return {
            "version": SOAK_SNAPSHOT_VERSION,
            "config": self._pins(),
            "prefixes": self._prefix_names(),
            "windows": [
                {
                    "window": window,
                    "selections": _encode_array(chosen),
                    "remaps": [list(pair) for pair in pairs],
                }
                for window, chosen, pairs in self._live
            ],
            "bank": self._bank.to_snapshot(),
            "ledger": self._ledger.state_dict(),
            "prev_switches": _encode_array(self._prev_switches),
        }

    def restore(self, payload: Mapping[str, Any]) -> None:
        """Inverse of :meth:`snapshot`: raises :class:`SoakError`, leaving
        the driver untouched, for a payload of another version, one written
        under another config or world, or one whose windows do not add up."""
        version = payload.get("version")
        if version != SOAK_SNAPSHOT_VERSION:
            raise SoakError(f"unsupported soak snapshot version {version!r}")
        saved, pins = payload.get("config"), self._pins()
        if saved != pins:
            saved = saved if isinstance(saved, Mapping) else {}
            name = next(
                (k for k in pins if k not in saved or saved[k] != pins[k]),
                min(set(saved) - set(pins), default="config"),
            )
            raise SoakError(
                f"checkpoint was written with {name}={saved.get(name)!r}, "
                f"this run has {name}={pins.get(name)!r}"
            )
        try:
            bank = SelectorBank.from_snapshot(payload["bank"])
            ledger = SLOLedger.from_state(payload["ledger"])
            prev_switches = _decode_array(payload["prev_switches"])
            names = list(payload["prefixes"])
            live = [
                (
                    int(entry["window"]),
                    _decode_array(entry["selections"]),
                    [(int(a), int(b)) for a, b in entry["remaps"]],
                )
                for entry in payload["windows"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise SoakError(f"malformed soak snapshot: {exc!r}") from exc
        self._check_live(live, names, last=ledger.windows_accounted - 1)
        self._plane = self._replay(live, names)
        self._live = live
        self._bank = bank
        self._ledger = ledger
        self._prev_switches = prev_switches

    def _check_live(self, live, names: List[str], last: int) -> None:
        """The recorded windows must be exactly the live windows ending at
        the ledger's last one, and every prefix id must name a prefix."""
        lifetime = self._cfg.flow_lifetime_windows
        first = max(0, last - lifetime + 1) if lifetime else 0
        got = [window for window, _chosen, _pairs in live]
        if got != list(range(first, last + 1)):
            raise SoakError(
                f"checkpoint records windows {got}, not the live windows "
                f"{first}..{last}"
            )
        if len(set(names)) != len(names) or not all(isinstance(n, str) for n in names):
            raise SoakError("checkpoint prefix list is not distinct names")
        for window, chosen, pairs in live:
            if (
                chosen.shape != (self._n,)
                or chosen.dtype.kind != "i"
                or ((chosen < -1) | (chosen >= len(names))).any()
                or not all(0 <= pid < len(names) for pair in pairs for pid in pair)
            ):
                raise SoakError(
                    f"window {window}'s selections or remaps do not index "
                    f"the {len(names)} saved prefixes"
                )

    def _replay(self, live, names: List[str]):
        """A fresh plane rebuilt by repeating the live windows' remap,
        forward and expiry calls — the calls, order and clock of
        :meth:`after_iteration`.  A flow alive now was admitted in one of
        these windows, so its record depends on them alone."""
        cfg = self._cfg
        lifetime = cfg.flow_lifetime_windows
        plane = self._new_plane()
        for name in names:
            plane.prefix_id(name)
        for window, chosen, pairs in live:
            for dead, target in pairs:
                plane.remap(names[dead], names[target])
            selections = {
                sid: names[pid] if pid >= 0 else None
                for sid, pid in enumerate(chosen.tolist())
            }
            plane.forward(
                self._admitted_batch(window), selections, now_s=window * cfg.window_s
            )
            if lifetime and window >= lifetime:
                plane.end(self._admitted_batch(window - lifetime).keys)
        return plane


@dataclass
class SoakResult:
    """What one :func:`run_soak` produced."""

    config: SoakConfig
    controller: ControllerResult
    ledger: SLOLedger
    flows_forwarded: int = 0
    forward_wall_s: float = 0.0
    remaps: int = 0
    flows_moved: int = 0
    deltas: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def flows_per_s(self) -> float:
        """Data-plane steering throughput (forward() wall time only)."""
        if self.forward_wall_s <= 0:
            return 0.0
        return self.flows_forwarded / self.forward_wall_s

    def summary(self) -> Dict[str, Any]:
        digest = self.ledger.summary()
        digest.update(
            {
                "preset": self.config.preset,
                "seed": self.config.seed,
                "plane": self.config.plane,
                "day_s": self.config.day_s,
                "iterations": self.controller.iterations_run,
                "resumed_from": self.controller.resumed_from,
                "deltas": self.deltas,
                "flows_forwarded": self.flows_forwarded,
                "flows_per_s": self.flows_per_s,
                "flows_moved": self.flows_moved,
                "journal_path": str(self.controller.journal_path),
            }
        )
        return digest

    def write_slo_report(self, path: PathLike) -> None:
        """Persist the full ledger state + digest as JSON (crash-safe)."""
        document = {
            "kind": "painter-soak-slo",
            "summary": self.summary(),
            "ledger": self.ledger.state_dict(),
        }
        atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def build_soak_deltas(scenario, cfg: SoakConfig, load: Optional[DiurnalLoad] = None):
    """The merged, boundary-aligned delta stream for one soak run."""
    load = load if load is not None else make_load(scenario, cfg)
    deltas: List[Delta] = load.volume_deltas(cfg.shifts_per_window)
    storm = (
        regional_storm(
            scenario,
            seed=cfg.seed,
            windows=cfg.windows,
            window_s=cfg.window_s,
            regions=cfg.storm_regions,
        )
        if cfg.storm_regions
        else FaultSchedule()
    )
    deltas = deltas + deltas_from_fault_schedule(storm)
    deltas.sort(key=lambda d: d.at_s)  # stable: shifts before pop events
    if cfg.windows > 1:
        expected = [w * cfg.window_s for w in range(1, cfg.windows)]
        got = [at_s for at_s, _bucket in group_deltas(deltas)]
        if got != expected:
            raise SoakError(
                "delta stream is not window-aligned: expected buckets at "
                f"{expected[:3]}…, got {got[:3]}…"
            )
    return deltas, storm


def run_soak(
    cfg: SoakConfig,
    checkpoint_dir: Optional[PathLike] = None,
    *,
    scenario=None,
) -> SoakResult:
    """Run (or resume) one soak over a simulated day.

    With no ``checkpoint_dir`` the run is self-contained in a temporary
    directory; pass one to enable SIGKILL/resume — a directory holding a
    durable checkpoint resumes instead of starting over.
    """
    if checkpoint_dir is None:
        with tempfile.TemporaryDirectory(prefix="soak-") as tmp:
            return run_soak(cfg, tmp, scenario=scenario)
    scenario = scenario if scenario is not None else PRESETS[cfg.preset](seed=cfg.seed)
    load = make_load(scenario, cfg)
    deltas, storm = build_soak_deltas(scenario, cfg, load)
    driver = SoakDriver(scenario, cfg, load)
    max_iterations = cfg.windows
    if cfg.stop_after is not None:
        max_iterations = min(max_iterations, cfg.stop_after)
    controller = PainterController(
        scenario,
        OrchestratorConfig(prefix_budget=cfg.prefix_budget),
        ControllerConfig(
            checkpoint_dir=checkpoint_dir,
            checkpoint_keep=cfg.checkpoint_keep,
            verify_every=cfg.verify_every,
            observe=cfg.observe,
            install=cfg.install,
            max_iterations=max_iterations,
            run_name="soak",
            crash_at_seq=cfg.crash_at,
            crash_point=cfg.crash_point,
        ),
        deltas,
        extension=driver,
    )
    try:
        controller_result = controller.run()
    finally:
        controller.close()
    result = SoakResult(
        config=cfg,
        controller=controller_result,
        ledger=driver.ledger,
        flows_forwarded=driver.flows_forwarded,
        forward_wall_s=driver.forward_wall_s,
        remaps=driver.remaps,
        flows_moved=driver.flows_moved,
        deltas=len(deltas),
    )
    outages = sum(1 for e in storm.events if isinstance(e, PopOutage))
    result.notes.append(
        f"storm: {outages} rolling PoP outages across "
        f"{cfg.storm_regions} region(s); "
        f"{len(load.crowds)} flash crowd(s)"
    )
    return result
