"""Out-of-process crash recovery: SIGKILL the controller, then resume.

The in-process suite (``test_controller_daemon.py``) proves the loop's
logic; this one proves the *durability* claim with a real process losing
its memory.  A controller run via the CLI is killed with ``SIGKILL`` by
its own crash-injection hook at each of the three interesting points of
an iteration — mid-journal-append (a torn record on disk), after the
journal is durable but before the checkpoint, and after the checkpoint —
and then restarted against the same checkpoint directory.  In every case
the resumed run must land on exactly the configuration and journal bytes
of a never-interrupted reference run, and no corrupt checkpoint or
journal file may survive.  Two delta streams are driven: seeded synthetic
churn, and a saved stream that adds a PoP outage from a fault schedule
(with periodic cold verification).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.controller.checkpoint import _CHECKPOINT_RE

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="SIGKILL crash injection requires POSIX"
)

CRASH_POINTS = ("mid_journal", "before_checkpoint", "after_checkpoint")

SYNTHETIC_STREAM = ("--synthetic", "5", "--delta-seed", "7")


def controller_cmd(checkpoint_dir, output, *extra, stream=SYNTHETIC_STREAM):
    return [
        sys.executable,
        "-m",
        "repro",
        "controller",
        "--preset",
        "tiny",
        "--seed",
        "3",
        "--budget",
        "4",
        *stream,
        "--checkpoint-dir",
        str(checkpoint_dir),
        "--output",
        str(output),
        *extra,
    ]


def run_cli(cmd):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=os.getcwd()
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted run: the ground truth for every crash variant."""
    root = tmp_path_factory.mktemp("reference")
    output = root / "final.json"
    proc = run_cli(controller_cmd(root / "cp", output))
    assert proc.returncode == 0, proc.stderr
    return {
        "config": json.loads(output.read_text()),
        "journal": (root / "cp" / "journal.jsonl").read_bytes(),
        "stdout": proc.stdout,
    }


class TestKillAndResume:
    @pytest.mark.parametrize("crash_point", CRASH_POINTS)
    def test_resume_matches_uninterrupted_run(
        self, tmp_path, reference, crash_point
    ):
        checkpoint_dir = tmp_path / "cp"
        output = tmp_path / "final.json"

        crashed = run_cli(
            controller_cmd(
                checkpoint_dir,
                output,
                "--crash-at",
                "2",
                "--crash-point",
                crash_point,
            )
        )
        # SIGKILL'd processes report -9 (or 137 through a shell wrapper).
        assert crashed.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)
        assert not output.exists()

        resumed = run_cli(controller_cmd(checkpoint_dir, output))
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed from checkpoint" in resumed.stdout

        assert json.loads(output.read_text()) == reference["config"]
        assert (
            checkpoint_dir / "journal.jsonl"
        ).read_bytes() == reference["journal"]

    @pytest.mark.parametrize("crash_point", CRASH_POINTS)
    def test_no_corrupt_files_survive(self, tmp_path, crash_point):
        """Every checkpoint on disk after a crash+resume loads cleanly."""
        from repro.controller import CheckpointStore

        checkpoint_dir = tmp_path / "cp"
        output = tmp_path / "final.json"
        run_cli(
            controller_cmd(
                checkpoint_dir,
                output,
                "--crash-at",
                "1",
                "--crash-point",
                crash_point,
            )
        )
        resumed = run_cli(controller_cmd(checkpoint_dir, output))
        assert resumed.returncode == 0, resumed.stderr

        store = CheckpointStore(checkpoint_dir)
        paths = store.list_paths()
        assert paths, "resumed run left no checkpoints"
        for path in paths:
            assert _CHECKPOINT_RE.match(path.name)
            store.load(path)  # raises CheckpointError on any corruption

        # The journal parses line-for-line: no torn tail survived resume.
        lines = (checkpoint_dir / "journal.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "header"
        seqs = [r["seq"] for r in records[1:]]
        assert seqs == list(range(len(seqs)))

    def test_double_crash_then_resume(self, tmp_path, reference):
        """Crashing the *resumed* run too must still converge."""
        checkpoint_dir = tmp_path / "cp"
        output = tmp_path / "final.json"
        first = run_cli(
            controller_cmd(
                checkpoint_dir, output, "--crash-at", "1",
                "--crash-point", "mid_journal",
            )
        )
        assert first.returncode != 0
        second = run_cli(
            controller_cmd(
                checkpoint_dir, output, "--crash-at", "3",
                "--crash-point", "before_checkpoint",
            )
        )
        assert second.returncode != 0
        final = run_cli(controller_cmd(checkpoint_dir, output))
        assert final.returncode == 0, final.stderr
        assert json.loads(output.read_text()) == reference["config"]
        assert (
            checkpoint_dir / "journal.jsonl"
        ).read_bytes() == reference["journal"]


@pytest.fixture(scope="module")
def fault_stream(tmp_path_factory):
    """Synthetic churn merged with a 2 s outage of the first PoP, saved."""
    from repro.controller import (
        deltas_from_fault_schedule,
        save_deltas,
        synthetic_deltas,
    )
    from repro.faults import FaultSchedule
    from repro.scenario import tiny_scenario

    scenario = tiny_scenario(seed=3)
    pop = scenario.topology.deployment.pops[0].name
    schedule = FaultSchedule.single_pop_outage(pop, at_s=2.0, duration_s=2.0)
    deltas = sorted(
        synthetic_deltas(scenario, iterations=6, seed=7)
        + deltas_from_fault_schedule(schedule),
        key=lambda d: d.at_s,
    )
    path = tmp_path_factory.mktemp("stream") / "deltas.json"
    save_deltas(deltas, path)
    return ("--deltas", str(path), "--verify-every", "2")


class TestFaultScheduleStream:
    def test_mid_journal_crash_resumes_to_uninterrupted_bytes(
        self, tmp_path, fault_stream
    ):
        full = run_cli(
            controller_cmd(tmp_path / "full", tmp_path / "full.json", stream=fault_stream)
        )
        assert full.returncode == 0, full.stderr

        checkpoint_dir = tmp_path / "crash"
        output = tmp_path / "crash.json"
        crashed = run_cli(
            controller_cmd(
                checkpoint_dir, output, "--crash-at", "3",
                "--crash-point", "mid_journal", stream=fault_stream,
            )
        )
        assert crashed.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)
        resumed = run_cli(controller_cmd(checkpoint_dir, output, stream=fault_stream))
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed from checkpoint" in resumed.stdout

        assert output.read_bytes() == (tmp_path / "full.json").read_bytes()
        assert (checkpoint_dir / "journal.jsonl").read_bytes() == (
            tmp_path / "full" / "journal.jsonl"
        ).read_bytes()
