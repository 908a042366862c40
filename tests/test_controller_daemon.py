"""The controller daemon and its durability primitives, in process.

Covers the typed delta vocabulary (validation, JSON round-trips, seeded
synthesis, fault-schedule translation), the checkpoint store (atomic
save/load, hash verification, corrupt-file fallback, pruning), the durable
run journal (fsync'd appends, torn-tail recovery, checkpoint-bounded
truncation), and the :class:`PainterController` loop itself: warm-start
re-solves under churn, stop/resume equivalence, the differential guard's
circuit breaker, and graceful degradation to last-known-good.
Out-of-process SIGKILL recovery lives in
``test_controller_recovery.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.controller import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    ControllerConfig,
    ControllerError,
    DeltaError,
    PainterController,
    PeeringDown,
    PeeringUp,
    PopDown,
    PopUp,
    VolumeShift,
    delta_from_dict,
    delta_to_dict,
    deltas_from_fault_schedule,
    group_deltas,
    load_deltas,
    save_deltas,
    synthetic_deltas,
)
from repro.controller import daemon
from repro.core.orchestrator import OrchestratorConfig
from repro.scenario import tiny_scenario
from repro.telemetry import JournalError, METRICS, RunJournal


# ---------------------------------------------------------------------------
# deltas
# ---------------------------------------------------------------------------


#: A valid document body per delta kind, and bad values per field: ids
#: and epochs must be non-bool ints (``True`` would alias id 1), ``at_s``
#: a finite non-bool number, ``pop_name`` a non-empty string.
_GOOD_FIELDS = {
    "volume_shift": {"at_s": 0, "ug_id": 1, "volume": 2.0},
    "peering_down": {"at_s": 1.5, "peering_id": 2},
    "peering_up": {"at_s": 1.5, "peering_id": 2},
    "pop_down": {"at_s": 3.0, "pop_name": "pop-a"},
    "pop_up": {"at_s": 3.0, "pop_name": "pop-a"},
    "link_weight_shift": {"at_s": 60.0, "epoch": 1},
}
_BAD_IDS = [True, False, 2.5, 1.0, "1", None]
_BAD_VALUES = {
    "at_s": [True, float("inf"), float("nan"), -1.0, "0"],
    "ug_id": _BAD_IDS,
    "peering_id": _BAD_IDS,
    "epoch": _BAD_IDS,
    "pop_name": [7, "", None],
}


class TestDeltas:
    def test_round_trip_every_type(self, tmp_path):
        deltas = [
            VolumeShift(at_s=0.0, ug_id=3, volume=12.5),
            PeeringDown(at_s=1.0, peering_id=7),
            PeeringUp(at_s=2.0, peering_id=7),
            PopDown(at_s=3.0, pop_name="pop-a"),
            PopUp(at_s=4.0, pop_name="pop-a"),
        ]
        path = tmp_path / "stream.json"
        save_deltas(deltas, path)
        assert load_deltas(path) == deltas

    def test_dict_round_trip(self):
        delta = VolumeShift(at_s=9.0, ug_id=1, volume=2.0)
        assert delta_from_dict(delta_to_dict(delta)) == delta

    def test_validation(self):
        with pytest.raises(ValueError):
            VolumeShift(at_s=0.0, ug_id=1, volume=-1.0)
        with pytest.raises(ValueError):
            VolumeShift(at_s=-1.0, ug_id=1, volume=1.0)
        with pytest.raises(ValueError):
            PopDown(at_s=0.0, pop_name="")
        with pytest.raises(DeltaError):
            delta_from_dict({"type": "no-such-delta", "at_s": 0.0})

    @pytest.mark.parametrize("volume", [float("nan"), float("inf")])
    def test_non_finite_volume_is_rejected(self, tmp_path, volume):
        with pytest.raises(DeltaError, match="finite"):
            VolumeShift(at_s=0.0, ug_id=1, volume=volume)
        # ``json`` writes and reads these as the bare ``NaN``/``Infinity``
        # tokens, so a stream file can carry them.
        path = tmp_path / "stream.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "painter-delta-stream",
                    "version": 1,
                    "deltas": [
                        {"type": "volume_shift", "at_s": 0.0, "ug_id": 1, "volume": volume}
                    ],
                }
            )
        )
        assert ("NaN" if volume != volume else "Infinity") in path.read_text()
        with pytest.raises(DeltaError, match="finite"):
            load_deltas(path)

    @pytest.mark.parametrize(
        "kind,field,value",
        [
            (kind, field, value)
            for kind, good in _GOOD_FIELDS.items()
            for field in good
            for value in _BAD_VALUES.get(field, ())
        ],
    )
    def test_field_types_fail_closed(self, tmp_path, kind, field, value):
        """Every delta kind rejects a bad-typed field, both from a dict and
        from a stream file (``json`` reads ``Infinity`` as a bare token)."""
        delta_from_dict({"type": kind, **_GOOD_FIELDS[kind]})  # the baseline loads
        document = {"type": kind, **_GOOD_FIELDS[kind], field: value}
        with pytest.raises(DeltaError):
            delta_from_dict(document)
        path = tmp_path / "stream.json"
        path.write_text(
            json.dumps(
                {"kind": "painter-delta-stream", "version": 1, "deltas": [document]}
            )
        )
        with pytest.raises(DeltaError):
            load_deltas(path)

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(DeltaError):
            load_deltas(path)

    def test_group_deltas_buckets_and_sorts_by_timestamp(self):
        deltas = [
            PeeringDown(at_s=5.0, peering_id=1),
            VolumeShift(at_s=0.0, ug_id=1, volume=1.0),
            VolumeShift(at_s=5.0, ug_id=2, volume=2.0),
        ]
        groups = group_deltas(deltas)
        assert [at for at, _ in groups] == [0.0, 5.0]
        assert len(groups[1][1]) == 2

    def test_synthetic_deltas_are_seed_deterministic(self):
        scenario = tiny_scenario(seed=3)
        a = synthetic_deltas(scenario, iterations=6, seed=11)
        b = synthetic_deltas(tiny_scenario(seed=3), iterations=6, seed=11)
        c = synthetic_deltas(scenario, iterations=6, seed=12)
        assert a == b
        assert a != c
        assert any(isinstance(d, VolumeShift) for d in a)

    def test_fault_schedule_translation(self):
        from repro.faults.events import PopOutage
        from repro.faults.schedule import FaultSchedule

        schedule = FaultSchedule(
            [PopOutage(start_s=10.0, pop_name="pop-x", duration_s=5.0)]
        )
        deltas = deltas_from_fault_schedule(schedule)
        downs = [d for d in deltas if isinstance(d, PopDown)]
        ups = [d for d in deltas if isinstance(d, PopUp)]
        assert len(downs) == len(ups) == 1
        assert downs[0].at_s < ups[0].at_s
        assert downs[0].pop_name == ups[0].pop_name == "pop-x"


# ---------------------------------------------------------------------------
# checkpoint store
# ---------------------------------------------------------------------------


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        payload = {"cursor": 3, "journal_seq": 17, "nested": {"a": [1, 2]}}
        path = store.save(4, payload)
        loaded = store.load(path)
        assert loaded == Checkpoint(seq=4, payload=payload, path=path)

    def test_file_is_the_compact_sorted_envelope(self, tmp_path):
        """The payload is dumped once, canonically, inside a compact
        envelope; an indented file (the earlier on-disk form) still loads."""
        store = CheckpointStore(tmp_path)
        payload = {"z": [1.5, float("nan")], "a": {"y": "é", "b": None}, "seq": 2}
        path = store.save(7, payload)
        loaded = store.load(path)
        compact = {"sort_keys": True, "separators": (",", ":")}
        envelope = {
            "kind": "painter-controller-checkpoint",
            "version": 1,
            "seq": 7,
            "sha256": hashlib.sha256(
                json.dumps(payload, **compact).encode("utf-8")
            ).hexdigest(),
            "payload": payload,
        }
        assert path.read_text() == json.dumps(envelope, **compact)
        assert json.dumps(loaded.payload, sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )
        path.write_text(json.dumps(envelope, sort_keys=True, indent=2))
        assert store.load(path).payload.keys() == payload.keys()

    def test_latest_returns_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=10)
        for seq in range(5):
            store.save(seq, {"seq": seq})
        assert store.latest().seq == 4

    def test_latest_skips_corrupt_files(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=10)
        store.save(0, {"good": True})
        good = store.save(1, {"good": True})
        # Corrupt the newest file: flip a payload byte so the hash fails.
        newest = store.save(2, {"good": False})
        newest.write_text(newest.read_text().replace("false", "true "))
        latest = store.latest()
        assert latest.seq == 1
        assert latest.path == good

    def test_latest_none_when_everything_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(0, {"x": 1}).write_text("not json")
        assert store.latest() is None

    def test_latest_skips_undecodable_bytes(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=10)
        good = store.save(0, {"good": True})
        store.save(1, {"good": True}).write_bytes(b"\xff\xfe garbage")
        with pytest.raises(CheckpointError):
            store.load(store.path_for(1))
        assert store.latest().path == good

    def test_prune_keeps_newest_k(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for seq in range(5):
            store.save(seq, {})
        names = [p.name for p in store.list_paths()]
        assert names == ["checkpoint-00000003.json", "checkpoint-00000004.json"]

    def test_load_rejects_foreign_and_versioned_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.save(0, {"x": 1})
        with pytest.raises(CheckpointError):
            store.load(tmp_path / "missing.json")
        foreign = tmp_path / "checkpoint-00000009.json"
        foreign.write_text(json.dumps({"kind": "other", "seq": 9}))
        with pytest.raises(CheckpointError):
            store.load(foreign)
        bumped = json.loads(path.read_text())
        bumped["version"] = 999
        path.write_text(json.dumps(bumped))
        with pytest.raises(CheckpointError):
            store.load(path)

    def test_keep_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, keep=0)


# ---------------------------------------------------------------------------
# durable journal
# ---------------------------------------------------------------------------


class TestDurableJournal:
    """A :class:`RunJournal` bound to a file by ``create`` / ``resume``."""

    def test_start_sync_resume_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal.create(path, run_name="test")
        journal.record_event("alpha", n=1)
        journal.record_event("beta", n=2)
        journal.sync()
        durable_seq = journal.last_seq
        journal.close()

        resumed = RunJournal.resume(path, durable_seq)
        try:
            assert resumed.last_seq == durable_seq
            assert resumed.run_name == "test"
            events = [r["event"] for r in resumed.records]
            assert events == ["alpha", "beta"]
        finally:
            resumed.close()

    def test_resume_drops_torn_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal.create(path)
        journal.record_event("alpha", n=1)
        journal.sync()
        durable_seq = journal.last_seq
        journal.record_event("beta", n=2)
        journal.tear()  # half of "beta" reaches the disk
        journal._fh.close()
        journal._fh = None

        resumed = RunJournal.resume(path, durable_seq)
        try:
            assert [r["event"] for r in resumed.records] == ["alpha"]
            # Appending after recovery continues the sequence seamlessly.
            resumed.record_event("gamma")
            resumed.sync()
        finally:
            resumed.close()
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        assert [r["event"] for r in records] == ["alpha", "gamma"]
        assert [r["seq"] for r in records] == [0, 1]

    def test_writer_emits_ascii_only(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal.create(path, meta={"name": "caf\u00e9"})
        journal.record_event("\u03b1", label="\u2192")
        journal.close()
        path.read_bytes().decode("ascii")
        resumed = RunJournal.resume(path, 0)
        try:
            assert resumed.records[0]["label"] == "\u2192"
            assert resumed.meta == {"name": "caf\u00e9"}
        finally:
            resumed.close()

    def test_resume_drops_undecodable_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal.create(path)
        for name in ("alpha", "beta", "gamma"):
            journal.record_event(name)
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        # Rot "beta"'s line: it and "gamma" after it are the torn tail.
        path.write_bytes(b"".join([lines[0], lines[1], b"\xff\xfe" + lines[2], lines[3]]))
        dropped = METRICS.counter("controller.journal_tail_dropped")
        before = dropped.value
        resumed = RunJournal.resume(path, 2)
        try:
            assert [r["event"] for r in resumed.records] == ["alpha"]
            assert dropped.value - before == 2
        finally:
            resumed.close()
        with path.open("ab") as fh:
            fh.write(b"\xff\xfe")
        resumed = RunJournal.resume(path, 2)
        try:
            assert [r["event"] for r in resumed.records] == ["alpha"]
            assert dropped.value - before == 3
        finally:
            resumed.close()

    def test_resume_rejects_undecodable_header(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe garbage\n")
        with pytest.raises(JournalError, match="corrupt header"):
            RunJournal.resume(bad, 0)

    def test_resume_truncates_past_checkpointed_seq(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal.create(path)
        for name in ("alpha", "beta", "gamma"):
            journal.record_event(name)
        journal.sync()
        journal.close()

        # Pretend the checkpoint only vouches for seq 0: the durable-but-
        # unvouched-for tail is re-run, not replayed.
        resumed = RunJournal.resume(path, 0)
        try:
            assert [r["event"] for r in resumed.records] == ["alpha"]
            assert resumed.dropped == 2
        finally:
            resumed.close()

    def test_resume_rejects_missing_or_headerless_file(self, tmp_path):
        with pytest.raises(JournalError):
            RunJournal.resume(tmp_path / "none.jsonl", 0)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind":"event"}\n')
        with pytest.raises(JournalError):
            RunJournal.resume(bad, 0)

    def test_event_before_start_raises(self, tmp_path):
        journal = RunJournal("unbound")
        journal.record_event("x")  # recording is fine; persistence is not
        with pytest.raises(RuntimeError):
            journal.sync()
        with pytest.raises(RuntimeError):
            journal.tear()
        journal.close()  # nothing to release: a no-op


# ---------------------------------------------------------------------------
# the daemon loop
# ---------------------------------------------------------------------------


def run_controller(tmp_path, subdir="run", deltas=None, scenario=None, **cfg):
    scenario = scenario if scenario is not None else tiny_scenario(seed=3)
    if deltas is None:
        deltas = synthetic_deltas(scenario, iterations=4, seed=7)
    controller = PainterController(
        scenario,
        OrchestratorConfig(prefix_budget=4),
        ControllerConfig(checkpoint_dir=tmp_path / subdir, **cfg),
        deltas,
    )
    try:
        return controller.run(), controller
    finally:
        controller.close()


def journal_events(path):
    lines = path.read_text().splitlines()
    return [json.loads(line) for line in lines[1:]]


class TestControllerLoop:
    def test_full_run_shape(self, tmp_path):
        result, _ = run_controller(tmp_path, verify_every=2)
        # iteration 0 bootstraps, then one iteration per delta bucket
        assert result.iterations_run == 5
        assert result.final_config is not None
        assert result.deltas_applied > 0
        assert result.degradations == 0
        assert result.divergences == 0
        assert [e["iteration"] for e in result.timeline] == [0, 1, 2, 3, 4]
        assert result.timeline[0]["mode"] == "cold"
        assert all(e["mode"] == "warm" for e in result.timeline[1:])

        events = journal_events(result.journal_path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "controller_start"
        assert kinds.count("controller_checkpoint") == 5
        assert kinds.count("controller_iteration") == 5
        assert "delta_applied" in kinds

    def test_stop_and_resume_matches_uninterrupted(self, tmp_path):
        reference, _ = run_controller(tmp_path, "ref")
        run_controller(tmp_path, "stopped", max_iterations=2)
        resumed, _ = run_controller(tmp_path, "stopped")
        assert resumed.resumed_from == 1
        assert resumed.final_config == reference.final_config
        assert (tmp_path / "ref" / "journal.jsonl").read_bytes() == (
            tmp_path / "stopped" / "journal.jsonl"
        ).read_bytes()

    def test_resume_of_finished_run_is_idempotent(self, tmp_path):
        first, _ = run_controller(tmp_path, "done")
        before = (tmp_path / "done" / "journal.jsonl").read_bytes()
        again, _ = run_controller(tmp_path, "done")
        assert again.iterations_run == 0
        assert again.resumed_from == first.iterations_run - 1
        assert again.final_config == first.final_config
        assert (tmp_path / "done" / "journal.jsonl").read_bytes() == before

    def test_warm_start_disabled_is_all_cold_and_same_config(self, tmp_path):
        warm, _ = run_controller(tmp_path, "warm")
        cold, _ = run_controller(tmp_path, "cold", warm_start=False)
        assert all(e["mode"] == "cold" for e in cold.timeline)
        assert all(e["reused_evals"] == 0 for e in cold.timeline)
        assert cold.final_config == warm.final_config

    def test_divergence_trips_breaker(self, tmp_path, monkeypatch):
        scenario = tiny_scenario(seed=3)
        deltas = synthetic_deltas(scenario, iterations=4, seed=7)
        controller = PainterController(
            scenario,
            OrchestratorConfig(prefix_budget=4),
            ControllerConfig(
                checkpoint_dir=tmp_path / "breaker",
                verify_every=1,
            ),
            deltas,
        )
        orch = controller.orchestrator
        real_solve_warm = orch.solve_warm

        def tampered_solve_warm(*args, **kwargs):
            config = real_solve_warm(*args, **kwargs)
            if orch.last_warm_stats.mode == "warm":
                # Drop one accepted pair: still plausible, provably wrong.
                prefix = config.prefixes[0]
                pid = sorted(config.peerings_for(prefix))[0]
                config.remove(prefix, pid)
            return config

        monkeypatch.setattr(orch, "solve_warm", tampered_solve_warm)
        try:
            result = controller.run()
        finally:
            controller.close()
        assert result.divergences >= 1
        kinds = [e["event"] for e in journal_events(result.journal_path)]
        assert "controller_breaker_open" in kinds
        # Breaker iterations run cold (and therefore verify clean).
        modes = [e["mode"] for e in result.timeline]
        assert "cold" in modes[1:]
        # The diverged iteration still installed the *trusted* cold config.
        assert result.final_config is not None

    def test_solve_failure_degrades_to_last_known_good(
        self, tmp_path, monkeypatch
    ):
        scenario = tiny_scenario(seed=3)
        deltas = synthetic_deltas(scenario, iterations=3, seed=7)
        controller = PainterController(
            scenario,
            OrchestratorConfig(prefix_budget=4),
            ControllerConfig(checkpoint_dir=tmp_path / "degrade"),
            deltas,
        )
        orch = controller.orchestrator
        real_solve_warm = orch.solve_warm
        calls = {"n": 0}

        def flaky_solve_warm(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:  # bootstrap succeeds, then every solve fails
                raise RuntimeError("solver down")
            return real_solve_warm(*args, **kwargs)

        monkeypatch.setattr(orch, "solve_warm", flaky_solve_warm)
        monkeypatch.setattr(daemon, "BACKOFF_S", 0.0)
        try:
            result = controller.run()
        finally:
            controller.close()
        assert result.degradations == len(result.timeline) - 1
        assert all(e["mode"] == "degraded" for e in result.timeline[1:])
        # The loop held the bootstrap config rather than crashing.
        assert result.final_config == result.last_known_good
        kinds = [e["event"] for e in journal_events(result.journal_path)]
        assert "controller_degraded" in kinds
        # retries: each failing iteration tried MAX_RETRIES + 1 times
        assert calls["n"] == 1 + 3 * (len(result.timeline) - 1)

    def test_failure_with_no_fallback_raises(self, tmp_path, monkeypatch):
        scenario = tiny_scenario(seed=3)
        controller = PainterController(
            scenario,
            OrchestratorConfig(prefix_budget=4),
            ControllerConfig(checkpoint_dir=tmp_path / "nofall"),
            synthetic_deltas(scenario, iterations=2, seed=7),
        )

        def boom(*args, **kwargs):
            raise RuntimeError("solver down")

        monkeypatch.setattr(controller.orchestrator, "solve_warm", boom)
        monkeypatch.setattr(daemon, "BACKOFF_S", 0.0)
        try:
            with pytest.raises(ControllerError):
                controller.run()
        finally:
            controller.close()

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ControllerConfig(checkpoint_dir=tmp_path, checkpoint_keep=0)
        with pytest.raises(ValueError):
            ControllerConfig(checkpoint_dir=tmp_path, verify_every=-1)
        with pytest.raises(ValueError):
            ControllerConfig(checkpoint_dir=tmp_path, crash_point="nope")

    def test_journal_path_defaults_into_checkpoint_dir(self, tmp_path):
        cfg = ControllerConfig(checkpoint_dir=tmp_path / "cp")
        assert cfg.resolved_journal_path == tmp_path / "cp" / "journal.jsonl"
        custom = ControllerConfig(
            checkpoint_dir=tmp_path / "cp", journal_path=tmp_path / "j.jsonl"
        )
        assert custom.resolved_journal_path == tmp_path / "j.jsonl"
