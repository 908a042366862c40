"""The soak checkpoint stores what cannot be re-derived; the plane is replayed.

:class:`~repro.soak.SoakDriver` checkpoints no flow table.  It records,
for each window whose flows may still be live, the per-UG selection and
the remap pairs it applied, and :meth:`~repro.soak.SoakDriver.restore`
rebuilds the plane by replaying those windows.  These tests pin that the
rebuilt plane is the live one bit for bit — at the plane level over
hostile batch sequences, and at every window of real soaks — that the
checkpoint no longer grows with the flows, and that a payload which does
not add up fails closed without touching the driver.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.controller import ControllerConfig, ControllerExtension, PainterController
from repro.controller.checkpoint import CheckpointStore
from repro.core.orchestrator import OrchestratorConfig
from repro.scenario import tiny_scenario
from repro.soak import (
    SoakConfig,
    SoakDriver,
    SoakError,
    build_soak_deltas,
    make_load,
    run_soak,
)
from repro.soak.slo import _encode_array
from repro.traffic_manager.dataplane import FlowBatch, VectorFlowTable
from tests.test_tm_dataplane import ScalarReference

pytestmark = pytest.mark.soak

PLANES = {"vector": VectorFlowTable, "scalar": ScalarReference}
PREFIXES = ["px-1", "px-2", "px-3"]
N_SERVICES = 3

BASE = dict(
    preset="tiny",
    seed=3,
    windows=6,
    window_s=600.0,
    arrivals_per_window=1_500,
    flow_lifetime_windows=2,
    shifts_per_window=4,
    storm_regions=1,
    flash_crowds=1,
)


def soak_config(**overrides) -> SoakConfig:
    params = dict(BASE)
    params.update(overrides)
    return SoakConfig(**params)


# -- (a) the plane: replaying the last L windows equals the full history -----

#: One window: flows over a small key space (cross-window collisions and
#: in-batch duplicates are the common case), a per-service selection that
#: may be None, and remap pairs applied before the forward.
WINDOW = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 24), st.integers(0, N_SERVICES - 1)),
        max_size=14,
    ),
    st.lists(
        st.one_of(st.none(), st.sampled_from(PREFIXES)),
        min_size=N_SERVICES,
        max_size=N_SERVICES,
    ),
    st.lists(
        st.tuples(st.sampled_from(PREFIXES), st.sampled_from(PREFIXES)),
        max_size=2,
    ),
)


def drive(plane, windows, batches, lifetime, span):
    """The soak driver's per-window data-plane calls, in its order."""
    for w in span:
        _flows, chosen, pairs = windows[w]
        for dead, target in pairs:
            plane.remap(dead, target)
        plane.forward(batches[w], dict(enumerate(chosen)), now_s=float(w))
        if lifetime and w >= lifetime:
            plane.end(batches[w - lifetime].keys)
    return plane


@given(
    windows=st.lists(WINDOW, min_size=1, max_size=8),
    lifetime=st.integers(0, 3),
    kind=st.sampled_from(sorted(PLANES)),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_replaying_the_live_windows_rebuilds_the_plane(windows, lifetime, kind):
    batches = [
        FlowBatch(
            keys=np.array([key for key, _sid in flows], dtype=np.uint64),
            service_ids=np.array([sid for _key, sid in flows], dtype=np.int32),
            payload_bytes=np.array(
                [100.0 * w + key + 0.5 for key, _sid in flows], dtype=np.float64
            ),
        )
        for w, (flows, _chosen, _pairs) in enumerate(windows)
    ]
    history = drive(PLANES[kind](), windows, batches, lifetime, range(len(windows)))
    expected = history.to_packed_snapshot()

    first = max(0, len(windows) - lifetime) if lifetime else 0
    rebuilt = PLANES[kind]()
    for name in expected["prefixes"]:
        rebuilt.prefix_id(name)
    drive(rebuilt, windows, batches, lifetime, range(first, len(windows)))
    assert rebuilt.to_packed_snapshot() == expected
    assert json.dumps(rebuilt.to_packed_snapshot()) == json.dumps(expected)


# -- (b) the soak: every window's checkpoint restores the live plane ---------


class _RestoreEveryWindow(ControllerExtension):
    """Runs the driver, and after every window restores a fresh driver
    from the JSON round-tripped snapshot and compares the planes."""

    def __init__(self, driver: SoakDriver, fresh) -> None:
        self.driver = driver
        self.fresh = fresh
        self.checked = 0

    def after_iteration(self, iteration, config, controller) -> None:
        self.driver.after_iteration(iteration, config, controller)
        payload = json.loads(json.dumps(self.driver.snapshot()))
        restored = self.fresh()
        restored.restore(payload)
        live = self.driver.plane.to_packed_snapshot()
        assert restored.plane.to_packed_snapshot() == live, f"window {iteration}"
        assert json.dumps(restored.plane.to_packed_snapshot()) == json.dumps(live)
        # The replay feeds none of the digests.
        assert restored.snapshot() == payload
        counters = (restored.flows_forwarded, restored.flows_moved, restored.remaps)
        assert counters == (0, 0, 0)
        self.checked += 1

    def snapshot(self):
        return self.driver.snapshot()

    def restore(self, payload) -> None:
        self.driver.restore(payload)


class _CollidingLoad:
    """The soak's load with its flow keys folded into a small space, so
    windows share keys and batches repeat them — the cases in which the
    replay's expiries and hits on older flows matter."""

    def __init__(self, load) -> None:
        self._load = load

    def batch(self, window: int) -> FlowBatch:
        batch = self._load.batch(window)
        return FlowBatch(
            batch.keys % np.uint64(997), batch.service_ids, batch.payload_bytes
        )


@pytest.mark.parametrize("colliding", [False, True], ids=["keys", "colliding-keys"])
@pytest.mark.parametrize("admit_cap", [None, 900])
@pytest.mark.parametrize("lifetime", [0, 1, 2])
@pytest.mark.parametrize("plane", ["vector", "scalar"])
def test_every_window_restores_the_live_plane(
    tmp_path, monkeypatch, plane, lifetime, admit_cap, colliding
):
    # The driver (live and restored) runs on the plane under test: the
    # vector plane, or the scalar reference substituted for it.
    monkeypatch.setattr(SoakDriver, "_new_plane", lambda self: PLANES[plane]())
    scenario = tiny_scenario(seed=BASE["seed"])
    cfg = soak_config(flow_lifetime_windows=lifetime, admit_cap=admit_cap)
    load = make_load(scenario, cfg)
    deltas, storm = build_soak_deltas(scenario, cfg, load)
    if colliding:
        load = _CollidingLoad(load)
    assert storm.events
    driver = SoakDriver(scenario, cfg, load)
    probe = _RestoreEveryWindow(driver, lambda: SoakDriver(scenario, cfg, load))
    controller = PainterController(
        scenario,
        OrchestratorConfig(prefix_budget=cfg.prefix_budget),
        ControllerConfig(checkpoint_dir=tmp_path / "cp", observe=False, run_name="soak"),
        deltas,
        extension=probe,
    )
    try:
        controller.run()
    finally:
        controller.close()
    assert probe.checked == cfg.windows
    # The storm moved flows, so remap pairs were replayed too.
    assert driver.remaps > 0 and driver.flows_moved > 0


# -- checkpoint size and hostile payloads ------------------------------------


def newest_checkpoint(directory):
    store = CheckpointStore(directory)
    path = store.list_paths()[-1]
    return path, store.load(path).payload


def test_checkpoint_size_does_not_scale_with_flows(tmp_path):
    sizes = {}
    for arrivals in (1_500, 15_000):
        result = run_soak(
            soak_config(arrivals_per_window=arrivals), tmp_path / str(arrivals)
        )
        path, payload = newest_checkpoint(result.controller.checkpoint_dir)
        extension = payload["extension"]
        assert set(extension) == {
            "version",
            "config",
            "prefixes",
            "windows",
            "bank",
            "ledger",
            "prev_switches",
        }
        assert len(extension["windows"]) == BASE["flow_lifetime_windows"]
        assert result.ledger.served.sum() > 0
        sizes[arrivals] = path.stat().st_size
    assert abs(sizes[15_000] - sizes[1_500]) < 0.1 * sizes[1_500]


@pytest.fixture(scope="module")
def stopped(tmp_path_factory):
    """A soak stopped after window 2, and its driver payload."""
    directory = tmp_path_factory.mktemp("soak-stopped") / "cp"
    run_soak(soak_config(stop_after=3), directory)
    _path, payload = newest_checkpoint(directory)
    return payload["extension"]


def _v1_with_plane(p):
    p["version"] = 1
    p["plane"] = VectorFlowTable().to_packed_snapshot()


def _descending(p):
    p["windows"].reverse()


def _one_window_too_many(p):
    extra = copy.deepcopy(p["windows"][0])
    extra["window"] -= 1
    p["windows"].insert(0, extra)


def _last_window_not_the_iteration(p):
    for entry in p["windows"]:
        entry["window"] += 1


def _selection_past_the_prefixes(p):
    chosen = np.zeros(p["ledger"]["n_ugs"], dtype=np.int32)
    chosen[0] = len(p["prefixes"])
    p["windows"][-1]["selections"] = _encode_array(chosen)


def _remap_past_the_prefixes(p):
    p["windows"][-1]["remaps"].append([0, len(p["prefixes"])])


def _selection_of_another_world(p):
    p["windows"][-1]["selections"] = _encode_array(np.zeros(3, dtype=np.int32))


def _repeated_prefix(p):
    p["prefixes"].append(p["prefixes"][0])


def _no_bank(p):
    del p["bank"]


def _other_config(p):
    p["config"]["arrivals_per_window"] = 4_000


def _other_world(p):
    p["config"]["user_groups"] += 1


@pytest.mark.parametrize(
    "tamper",
    [
        _v1_with_plane,
        _descending,
        _one_window_too_many,
        _last_window_not_the_iteration,
        _selection_past_the_prefixes,
        _remap_past_the_prefixes,
        _selection_of_another_world,
        _repeated_prefix,
        _no_bank,
        _other_config,
        _other_world,
    ],
)
def test_hostile_payload_fails_closed_and_leaves_the_driver(stopped, tamper):
    scenario = tiny_scenario(seed=BASE["seed"])
    cfg = soak_config()
    driver = SoakDriver(scenario, cfg, make_load(scenario, cfg))
    driver.restore(copy.deepcopy(stopped))
    assert driver.plane.flow_count() > 0
    before = driver.snapshot()
    plane = driver.plane.to_packed_snapshot()
    payload = copy.deepcopy(stopped)
    tamper(payload)
    with pytest.raises(SoakError):
        driver.restore(payload)
    assert driver.snapshot() == before
    assert driver.plane.to_packed_snapshot() == plane


def test_the_saved_payload_itself_restores(stopped):
    scenario = tiny_scenario(seed=BASE["seed"])
    cfg = soak_config()
    driver = SoakDriver(scenario, cfg, make_load(scenario, cfg))
    driver.restore(copy.deepcopy(stopped))
    assert driver.snapshot() == stopped
