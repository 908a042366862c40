"""End-to-end soak differentials and SLO edge cases.

The soak harness's headline claims, proven rather than asserted:

* **Determinism** — identical seeds produce byte-identical journals and
  bit-identical SLO-ledger fingerprints, across reruns, across a
  stop/resume cycle, and (in the ``slow`` tier) across a real
  SIGKILL/resume through the CLI.
* **Oracle agreement** — the scalar reference kept in
  ``tests/test_tm_dataplane.py``, substituted for the driver's
  :class:`VectorFlowTable`, yields a bit-identical ledger.
* **SLO edge cases** — flows spanning an outage boundary fail over
  without breaking flow conservation, zero-flow windows and flash-crowd
  admit bursts account cleanly, and a breaker trip mid-soak degrades the
  controller without corrupting the ledger.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.controller import ControllerConfig, PainterController
from repro.core.orchestrator import OrchestratorConfig
from repro.scenario import tiny_scenario
from repro.soak import (
    SLOLedger,
    SoakConfig,
    SoakDriver,
    SoakError,
    build_soak_deltas,
    make_load,
    regional_storm,
    run_soak,
)
from tests.test_tm_dataplane import ScalarReference

pytestmark = pytest.mark.soak

#: Small-but-complete soak: storms, flash crowds, flow expiry all active.
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


def journal_events(path, kind=None):
    events = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    if kind is not None:
        events = [e for e in events if e.get("event") == kind]
    return events


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted run: ground truth for every differential."""
    root = tmp_path_factory.mktemp("soak-reference")
    result = run_soak(soak_config(), root / "cp")
    return {
        "result": result,
        "journal": result.controller.journal_path.read_bytes(),
        "fingerprint": result.ledger.fingerprint(),
    }


class TestSeedDifferential:
    def test_identical_seeds_identical_journals_and_ledgers(
        self, tmp_path, reference
    ):
        rerun = run_soak(soak_config(), tmp_path / "cp")
        assert (
            rerun.controller.journal_path.read_bytes()
            == reference["journal"]
        )
        assert rerun.ledger.fingerprint() == reference["fingerprint"]
        rerun.ledger.check_invariants()

    def test_different_seed_diverges(self, tmp_path, reference):
        other = run_soak(soak_config(seed=4), tmp_path / "cp")
        assert other.ledger.fingerprint() != reference["fingerprint"]

    def test_scalar_oracle_matches_vector_plane(
        self, tmp_path, monkeypatch, reference
    ):
        monkeypatch.setattr(SoakDriver, "_new_plane", lambda self: ScalarReference())
        oracle = run_soak(soak_config(), tmp_path / "cp")
        assert oracle.ledger.fingerprint() == reference["fingerprint"]
        # Throughput figures are wall-clock and excluded from the
        # fingerprint, but both planes steered the same flow count.
        assert (
            oracle.flows_forwarded
            == reference["result"].flows_forwarded
        )

    def test_stop_and_resume_matches_uninterrupted(
        self, tmp_path, reference
    ):
        checkpoint = tmp_path / "cp"
        first = run_soak(soak_config(stop_after=3), checkpoint)
        assert first.controller.iterations_run == 3
        resumed = run_soak(soak_config(), checkpoint)
        assert resumed.controller.resumed_from == 2
        assert (
            resumed.controller.journal_path.read_bytes()
            == reference["journal"]
        )
        assert resumed.ledger.fingerprint() == reference["fingerprint"]

    def test_resume_under_another_config_fails_closed(self, tmp_path):
        """The checkpoint's windows were simulated under one config; a
        resume under another must not splice the two into one ledger."""
        checkpoint = tmp_path / "cp"
        run_soak(soak_config(stop_after=3), checkpoint)
        with pytest.raises(SoakError, match="arrivals_per_window"):
            run_soak(
                soak_config(arrivals_per_window=4_000, flow_lifetime_windows=1),
                checkpoint,
            )
        with pytest.raises(SoakError, match="flow_lifetime_windows"):
            run_soak(soak_config(flow_lifetime_windows=1), checkpoint)
        # Run control may change across a resume.
        resumed = run_soak(soak_config(stop_after=5), checkpoint)
        assert resumed.controller.resumed_from == 2

    def test_summary_and_report_round_trip(self, tmp_path, reference):
        result = reference["result"]
        summary = result.summary()
        assert summary["accounting_errors"] == 0
        assert summary["fingerprint"] == reference["fingerprint"]
        assert summary["plane"] == "vector"
        out = tmp_path / "slo.json"
        result.write_slo_report(out)
        document = json.loads(out.read_text())
        assert document["kind"] == "painter-soak-slo"
        restored = SLOLedger.from_state(document["ledger"])
        assert restored.fingerprint() == reference["fingerprint"]


class TestFlowConservation:
    def test_flows_spanning_outages_move_instead_of_vanishing(
        self, reference
    ):
        """Across remaps and expiries, the live-flow count balances."""
        result = reference["result"]
        events = journal_events(
            result.controller.journal_path, "soak_window"
        )
        assert len(events) == BASE["windows"]
        live = 0
        for event in events:
            live += event["served"] - event["ended"]
            assert event["live_flows"] == live
            assert (
                event["offered"]
                == event["served"] + event["unroutable"] + event["shed"]
            )
        # The storm + config churn actually exercised failover: admitted
        # flows crossed a dead-destination boundary and were moved.
        assert sum(e["remapped"] for e in events) > 0
        assert result.flows_moved == sum(e["remapped"] for e in events)
        assert events[-1]["accounting_errors"] == 0


class TestSLOEdgeCases:
    def test_zero_flow_soak_accounts_cleanly(self, tmp_path):
        result = run_soak(
            soak_config(arrivals_per_window=0, flash_crowds=0),
            tmp_path / "cp",
        )
        result.ledger.check_invariants()
        assert int(result.ledger.offered.sum()) == 0
        assert result.ledger.p99_ms() is None
        assert result.ledger.windows_accounted == BASE["windows"]

    def test_flash_crowd_burst_is_shed_not_miscounted(self, tmp_path):
        scenario = tiny_scenario(seed=BASE["seed"])
        cfg = soak_config(admit_cap=None)
        load = make_load(scenario, cfg)
        # Cap below the flash-crowd peak but above the calm windows, so
        # only the burst sheds.
        arrivals = [load.arrivals(w) for w in range(cfg.windows)]
        cap = max(min(arrivals), 1)
        assert max(arrivals) > cap
        result = run_soak(soak_config(admit_cap=cap), tmp_path / "cp")
        result.ledger.check_invariants()
        assert int(result.ledger.shed.sum()) > 0
        assert result.summary()["accounting_errors"] == 0

    def test_breaker_trip_mid_soak_keeps_the_ledger_clean(
        self, tmp_path, monkeypatch
    ):
        """A diverging warm solver trips the breaker; the soak rides on."""
        scenario = tiny_scenario(seed=BASE["seed"])
        cfg = soak_config(verify_every=1)
        load = make_load(scenario, cfg)
        deltas, _storm = build_soak_deltas(scenario, cfg, load)
        driver = SoakDriver(scenario, cfg, load)
        controller = PainterController(
            scenario,
            OrchestratorConfig(prefix_budget=cfg.prefix_budget),
            ControllerConfig(
                checkpoint_dir=tmp_path / "cp",
                verify_every=1,
                run_name="soak",
            ),
            deltas,
            extension=driver,
        )
        orch = controller.orchestrator
        real_solve_warm = orch.solve_warm

        def tampered_solve_warm(*args, **kwargs):
            config = real_solve_warm(*args, **kwargs)
            if orch.last_warm_stats.mode == "warm":
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
        kinds = {
            e["event"] for e in journal_events(result.journal_path)
        }
        assert "controller_breaker_open" in kinds
        # Every window was still simulated and accounted, error-free.
        driver.ledger.check_invariants()
        assert driver.ledger.windows_accounted == cfg.windows


#: Every SoakConfig field with the values it must refuse at construction.
BAD_FIELDS = [
    ("preset", 3),
    ("seed", -1),
    ("seed", 1.0),
    ("windows", 0),
    ("windows", True),
    ("windows", 2.5),
    ("window_s", 0.0),
    ("window_s", float("nan")),
    ("window_s", float("inf")),
    ("window_s", True),
    ("arrivals_per_window", -5),
    ("arrivals_per_window", 1e4),
    ("flow_lifetime_windows", -1),
    ("flow_lifetime_windows", False),
    ("prefix_budget", 0),
    ("prefix_budget", "4"),
    ("plane", "gpu"),
    ("plane", "scalar"),
    ("shifts_per_window", -1),
    ("shifts_per_window", 0),
    ("storm_regions", -1),
    ("flash_crowds", -2),
    ("admit_cap", -1),
    ("admit_cap", 10.0),
    ("failover_budget", -1),
    ("verify_every", -1),
    ("observe", 1),
    ("install", None),
    ("checkpoint_keep", 0),
    ("prom_path", 7),
    ("crash_at", -1),
    ("crash_at", True),
    ("crash_point", "never"),
    ("stop_after", 0),
    ("stop_after", 2.0),
]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "name,value", BAD_FIELDS, ids=[f"{n}={v!r}" for n, v in BAD_FIELDS]
    )
    def test_bad_field_fails_at_construction(self, name, value):
        with pytest.raises(ValueError, match=name):
            soak_config(**{name: value})

    def test_every_field_is_covered(self):
        from dataclasses import fields

        assert {f.name for f in fields(SoakConfig)} == {n for n, _v in BAD_FIELDS}

    def test_edge_values_are_accepted(self):
        cfg = soak_config(
            seed=0,
            arrivals_per_window=0,
            flow_lifetime_windows=0,
            window_s=1,
            admit_cap=0,
            crash_at=0,
            stop_after=1,
        )
        assert cfg.day_s == BASE["windows"]


class TestAlignmentAndStorm:
    def test_misaligned_delta_stream_is_rejected(self):
        scenario = tiny_scenario(seed=BASE["seed"])
        cfg = soak_config(windows=8)
        short_load = make_load(scenario, soak_config(windows=4))
        with pytest.raises(SoakError, match="window-aligned"):
            build_soak_deltas(scenario, cfg, short_load)

    def test_storm_snaps_to_window_boundaries(self):
        scenario = tiny_scenario(seed=BASE["seed"])
        windows, window_s = 8, 450.0
        storm = regional_storm(
            scenario, seed=11, windows=windows, window_s=window_s
        )
        assert storm.events
        all_regions = {p.metro.region for p in scenario.deployment.pops}
        stormed = set()
        for event in storm.events:
            assert event.start_s % window_s == 0
            assert event.duration_s % window_s == 0
            assert event.start_s >= window_s
            end = event.start_s + event.duration_s
            assert end <= (windows - 1) * window_s
            pop = next(
                p
                for p in scenario.deployment.pops
                if p.name == event.pop_name
            )
            stormed.add(pop.metro.region)
        # At least one region always rides out the storm untouched.
        assert stormed < all_regions

    def test_single_region_world_gets_no_storm(self):
        from repro.topology.cloud import CloudDeployment
        from repro.topology.geo import metro_by_name

        deployment = CloudDeployment(name="one-region")
        deployment.add_pop("pop-nyc", metro_by_name("new-york"))
        deployment.add_pop("pop-iad", metro_by_name("ashburn"))

        class _World:
            pass

        world = _World()
        world.deployment = deployment
        # Both pops share us-east: no region can safely be stormed.
        storm = regional_storm(world, seed=0, windows=8, window_s=100.0)
        assert storm.events == ()


# -- out-of-process durability (slow tier) ----------------------------------

CLI_CRASH_POINTS = ("mid_journal", "before_checkpoint", "after_checkpoint")


def soak_cmd(checkpoint_dir, slo_out, *extra):
    return [
        sys.executable,
        "-m",
        "repro",
        "soak",
        "--preset",
        "tiny",
        "--seed",
        "3",
        "--windows",
        "6",
        "--day",
        "3600",
        "--arrivals",
        "1500",
        "--shifts",
        "4",
        "--checkpoint-dir",
        str(checkpoint_dir),
        "--slo-out",
        str(slo_out),
        *extra,
    ]


def run_cli(cmd):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=os.getcwd()
    )


@pytest.mark.slow
@pytest.mark.skipif(
    os.name != "posix", reason="SIGKILL crash injection requires POSIX"
)
class TestKillAndResumeCLI:
    """Second leg: immortal flows, so every resume replays the day from
    window 0."""

    @pytest.fixture(
        scope="class",
        params=[(), ("--flow-lifetime", "0")],
        ids=["vector", "immortal"],
    )
    def leg(self, request):
        return request.param

    @pytest.fixture(scope="class")
    def cli_reference(self, tmp_path_factory, leg):
        root = tmp_path_factory.mktemp("soak-cli-reference")
        slo = root / "slo.json"
        proc = run_cli(soak_cmd(root / "cp", slo, *leg))
        assert proc.returncode == 0, proc.stderr
        return {
            "journal": (root / "cp" / "journal.jsonl").read_bytes(),
            "ledger": json.loads(slo.read_text())["ledger"],
            "stdout": proc.stdout,
        }

    @pytest.mark.parametrize("crash_point", CLI_CRASH_POINTS)
    def test_sigkill_then_resume_is_bit_identical(
        self, tmp_path, cli_reference, leg, crash_point
    ):
        checkpoint = tmp_path / "cp"
        slo = tmp_path / "slo.json"
        crashed = run_cli(
            soak_cmd(
                checkpoint,
                slo,
                *leg,
                "--crash-at",
                "3",
                "--crash-point",
                crash_point,
            )
        )
        assert crashed.returncode in (
            -signal.SIGKILL,
            128 + signal.SIGKILL,
        )
        assert not slo.exists()

        resumed = run_cli(soak_cmd(checkpoint, slo, *leg))
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed from checkpoint" in resumed.stdout
        assert (
            checkpoint / "journal.jsonl"
        ).read_bytes() == cli_reference["journal"]
        ledger = SLOLedger.from_state(json.loads(slo.read_text())["ledger"])
        reference_ledger = SLOLedger.from_state(cli_reference["ledger"])
        assert ledger.fingerprint() == reference_ledger.fingerprint()
        assert "fingerprint " + ledger.fingerprint() in cli_reference["stdout"]
