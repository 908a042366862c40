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
SIGKILL/resume cycle, because the driver's full state (data plane,
selector bank, ledger) rides the controller checkpoint.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

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
from repro.core.advertisement import AdvertisementConfig
from repro.core.orchestrator import OrchestratorConfig
from repro.faults.events import PopOutage
from repro.faults.schedule import FaultSchedule
from repro.soak.load import DiurnalLoad
from repro.soak.slo import SLOLedger, _decode_array, _encode_array
from repro.telemetry import METRICS, TRACER
from repro.traffic_manager.dataplane import (
    FlowBatch,
    ScalarDataPlane,
    VectorFlowTable,
    plane_from_snapshot,
)
from repro.traffic_manager.selection import SelectorBank

PathLike = Union[str, Path]

#: Bump when the driver's checkpoint payload schema changes incompatibly.
SOAK_SNAPSHOT_VERSION = 1


class SoakError(RuntimeError):
    """Soak configuration or alignment failure."""


@dataclass(frozen=True)
class SoakConfig:
    """Everything that parameterizes one :func:`run_soak`."""

    #: Scenario preset (``tiny`` / ``prototype`` / ``azure`` / ``mega``).
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
    #: Data plane: ``vector`` (production) or ``scalar`` (oracle).
    plane: str = "vector"
    #: Top-mover VolumeShifts emitted per window boundary.
    shifts_per_window: int = 8
    #: Regions hit by the rolling storm (0 = calm weather).
    storm_regions: int = 1
    #: Windows each PoP in a stormed region stays dark.
    storm_outage_windows: int = 2
    #: Diurnal curve peak-to-mean amplitude.
    amplitude: float = 0.5
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
    mean_flow_bytes: float = 1500.0
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
        if self.windows < 1:
            raise ValueError("windows must be >= 1")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.plane not in ("vector", "scalar"):
            raise ValueError("plane must be 'vector' or 'scalar'")
        if self.flow_lifetime_windows < 0:
            raise ValueError("flow_lifetime_windows must be non-negative")
        if self.admit_cap is not None and self.admit_cap < 0:
            raise ValueError("admit_cap must be non-negative")
        if self.storm_regions < 0:
            raise ValueError("storm_regions must be non-negative")

    @property
    def day_s(self) -> float:
        return self.windows * self.window_s


def _make_scenario(cfg: SoakConfig):
    from repro.scenario import (
        azure_scenario,
        mega_scenario,
        prototype_scenario,
        tiny_scenario,
    )

    presets = {
        "tiny": tiny_scenario,
        "prototype": prototype_scenario,
        "azure": azure_scenario,
        "mega": mega_scenario,
    }
    try:
        builder = presets[cfg.preset]
    except KeyError:
        raise SoakError(f"unknown preset {cfg.preset!r}") from None
    return builder(seed=cfg.seed)


def make_load(scenario, cfg: SoakConfig) -> DiurnalLoad:
    return DiurnalLoad(
        scenario,
        seed=cfg.seed,
        windows=cfg.windows,
        window_s=cfg.window_s,
        base_arrivals=cfg.arrivals_per_window,
        amplitude=cfg.amplitude,
        flash_crowds=cfg.flash_crowds,
        mean_flow_bytes=cfg.mean_flow_bytes,
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

    Rides every controller iteration (= one simulated window).  All state
    that matters for resume — the flow table, the selector bank, the
    ledger, the per-UG switch counters — is snapshot into and restored
    from the controller checkpoint; the throughput accumulators
    (:attr:`flows_forwarded`, :attr:`forward_wall_s`) are deliberately
    wall-clock-derived and excluded.
    """

    def __init__(self, scenario, cfg: SoakConfig, load: DiurnalLoad) -> None:
        self._scenario = scenario
        self._cfg = cfg
        self._load = load
        self._ugs = list(scenario.user_groups)
        self._n = len(self._ugs)
        self._plane = (
            VectorFlowTable() if cfg.plane == "vector" else ScalarDataPlane()
        )
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
        columns: List[np.ndarray] = []
        seen = set()
        routing = self._scenario.routing
        for pid in config.prefixes:
            peerings = config.peerings_for(pid)
            name = self.prefix_label(peerings)
            if name in seen:
                continue
            seen.add(name)
            live = frozenset(p for p in peerings if p not in disabled)
            col = np.full(self._n, np.inf)
            if live:
                for i, ug in enumerate(self._ugs):
                    latency = routing.latency_for(ug, live)
                    if latency is not None:
                        col[i] = latency
            names.append(name)
            columns.append(col)
        if columns:
            matrix = np.column_stack(columns)
        else:
            matrix = np.zeros((self._n, 0))
        return names, matrix

    def _admitted_batch(self, window: int) -> FlowBatch:
        """The batch actually admitted during ``window`` (cap applied)."""
        batch = self._load.batch(window)
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
            self.remaps += remaps
            self.flows_moved += moved

            # Offer the window's arrivals (flash-crowd overflow is shed).
            full = self._load.batch(window)
            offered = np.bincount(
                full.service_ids, minlength=n
            ).astype(np.int64)
            batch = self._admitted_batch(window)
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
                journal.event(
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
        target = Path(path)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(METRICS.to_prometheus())
        os.replace(tmp, target)

    # -- checkpoint round-trip -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "version": SOAK_SNAPSHOT_VERSION,
            "plane": self._plane.to_snapshot(),
            "bank": self._bank.to_snapshot(),
            "ledger": self._ledger.state_dict(),
            "prev_switches": _encode_array(self._prev_switches),
        }

    def restore(self, payload: Mapping[str, Any]) -> None:
        version = payload.get("version")
        if version != SOAK_SNAPSHOT_VERSION:
            raise SoakError(f"unsupported soak snapshot version {version!r}")
        self._plane = plane_from_snapshot(payload["plane"])
        self._bank = SelectorBank.from_snapshot(payload["bank"])
        self._ledger = SLOLedger.from_state(payload["ledger"])
        self._prev_switches = _decode_array(payload["prev_switches"])


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
        target = Path(path)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, target)


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
            outage_windows=cfg.storm_outage_windows,
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
    scenario = scenario if scenario is not None else _make_scenario(cfg)
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
