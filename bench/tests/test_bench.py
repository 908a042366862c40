"""Self-tests of the benchmark (``python -m pytest bench/tests -q``).

Not part of tier-1 (whose ``testpaths`` is ``tests``).  The workload tests run
the real runner in ``--quick`` mode: tiny worlds, about a second per run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types

import pytest

from bench import REPO, RUN_SECONDS
from bench.catalog import END_TO_END, PER_LAYER
from bench.cli import child_env, flat_middle_span, spawn
from bench.spans import Recorder, self_times
from bench.workloads import WORKLOADS


# -- spans -------------------------------------------------------------------


def _span(span_id, name, start, end, parent=None, step=None):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "workload": "w", "pass": 0, "step": step}


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span(0, "step", 0.0, 10.0),
        _span(1, "solve", 1.0, 7.0, parent=0),
        _span(2, "evaluate", 2.0, 4.0, parent=1),
        _span(3, "observe", 7.0, 9.5, parent=0),
        _span(4, "open", 9.0, None, parent=0),
    ]
    own = self_times(spans)
    assert own == {0: 10.0 - 6.0 - 2.5, 1: 6.0 - 2.0, 2: 2.0, 3: 2.5}
    assert sum(own.values()) == pytest.approx(10.0)  # nothing counted twice


def test_recorder_links_parents_and_labels_steps():
    rec = Recorder("w", enabled=True)
    with rec.span("outer"):
        rec.step = 3
        with rec.span("inner"):
            pass
        rec.step = None
    outer, inner = rec.spans
    assert (outer["parent"], inner["parent"]) == (None, outer["id"])
    assert (outer["step"], inner["step"]) == (None, 3)
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert rec.cost_in_steps_s > 0
    with pytest.raises(RuntimeError):
        rec.end(rec.begin("a") - 1)  # closing anything but the innermost span


def test_disabled_recorder_records_and_wraps_nothing():
    rec = Recorder("w", enabled=False)
    target = types.SimpleNamespace(call=lambda: 1)
    original = target.call
    rec.wrap(target, "call", "x")
    with rec.span("x"):
        assert target.call is original
    assert rec.spans == []


def test_wrap_spans_instance_class_and_module_calls_and_restores_them():
    class Thing:
        def method(self):
            return "m"

    module = types.ModuleType("fake")
    module.function = lambda: "f"
    thing = Thing()
    rec = Recorder("w", enabled=True)
    rec.wrap(thing, "method", "instance")
    rec.wrap(Thing, "method", lambda: "class")
    rec.wrap(module, "function", "module")
    assert (thing.method(), Thing().method(), module.function()) == ("m", "m", "f")
    assert [s["name"] for s in rec.spans] == ["instance", "class", "module"]
    rec.unwrap_all()
    thing.method(), module.function()
    assert len(rec.spans) == 3 and "method" not in vars(thing)


# -- the step-list rule --------------------------------------------------------


def test_flat_middle_rule():
    flat = [1.0, 1.01, 0.99, 1.02, 0.98, 5.0, 0.2, 1.0, 1.03, 0.97]
    assert flat_middle_span(flat) < 0.10
    # half the steps cheap, half expensive: the median sits on the cliff
    bimodal = [0.5] * 5 + [2.0] * 5
    assert flat_middle_span(bimodal) > 0.10
    assert flat_middle_span([3.0, 4.6, 5.7]) == 0.0


# -- the four workload shapes, in --quick mode -----------------------------------


@pytest.fixture(scope="module")
def quick_runs():
    """Two untraced runs and one traced run of every workload, seed 0."""
    return {
        name: {
            "first": spawn(name, 0, RUN_SECONDS, False, True),
            "second": spawn(name, 0, RUN_SECONDS, False, True),
            "traced": spawn(name, 0, RUN_SECONDS, True, True),
        }
        for name in WORKLOADS
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_quick_run_has_the_shape_and_passes_its_checks(quick_runs, name):
    doc = quick_runs[name]["first"]
    assert doc["failed"] == 0, doc["failures"]
    assert doc["attempted"] > doc["steps"] >= 2
    assert doc["passes"] == len(doc["pass_walls_s"]) == len(doc["cold_samples_s"]) == 2
    assert len(doc["setup_samples_s"]) > doc["passes"]
    # every step is reported at its fastest pass
    assert doc["step_walls_s"] == [min(walls) for walls in zip(*doc["pass_walls_s"])]
    assert not doc["checked_against_expected"]  # expected.json is full-size only


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_and_digests_repeat_exactly(quick_runs, name):
    runs = quick_runs[name]
    assert runs["first"]["work"] == runs["second"]["work"] == runs["traced"]["work"]
    assert runs["first"]["attempted"] == runs["second"]["attempted"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_cell_is_missing(quick_runs, name):
    runs = quick_runs[name]
    e2e = runs["first"]["e2e"]
    assert [(n, e2e[n]["unit"]) for n in e2e] == [(n, u) for n, u, _b in END_TO_END]
    assert all(metric["value"] > 0 for metric in e2e.values())
    assert all(metric["samples"] >= 1 for metric in e2e.values())
    layers = runs["traced"]["layers"]
    assert [(n, layers[n]["unit"]) for n in layers] == [
        (n, u) for n, u, _b, _f in PER_LAYER
    ]


def test_traces_separate_the_layers(quick_runs):
    layers = {name: quick_runs[name]["traced"]["layers"] for name in WORKLOADS}

    def value(workload, metric):
        return layers[workload][metric]["value"]

    assert value("learn-p15", "benefit.slow_path_share") > 0.9
    assert value("azure-deltas", "benefit.slow_path_share") == 0
    assert value("learn-p15", "orchestrator.learned_solve_s") > 0
    assert value("azure-deltas", "orchestrator.learned_solve_s") == 0
    for metric in ("orchestrator.marginal_evals", "benefit.scan_fast_queries",
                   "orchestrator.warm_burst_s", "checkpoint.save_s"):
        assert value("tm-churn", metric) == 0  # no solver, no persistence
    assert value("day-proto", "checkpoint.save_s") > 0
    assert value("day-proto", "soak.driver_s") > 0
    assert value("tm-churn", "dataplane.trickle_admit_flows_per_s") > 0
    for name in WORKLOADS:
        assert 1.0 <= value(name, "bench.trace_overhead_ratio") < 1.05
        traced = quick_runs[name]["traced"]
        in_steps = [s for s in traced["spans"] if s["name"] == "step"]
        assert len(in_steps) == traced["steps"] * traced["passes"]
        assert {s["pass"] for s in in_steps} == set(range(traced["passes"]))


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_names_exactly_what_the_runner_emits():
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["bench"]
    assert contract["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and "\n" not in w["why"]
               for w in contract["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in contract["end_to_end"]] == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        (n, u, b) for n, u, b, _f in PER_LAYER
    ]
    assert all(set(m) == {"name", "unit", "better"} for m in contract["per_layer"])


def test_measure_prints_the_contract_object_as_its_last_line():
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    for trace, names in (
        (0, [m["name"] for m in contract["end_to_end"]]),
        (1, [m["name"] for m in contract["per_layer"]]),
    ):
        done = subprocess.run(
            contract["command"]
            + ["--workload", "tm-churn", "--seed", "3", "--seconds", "25",
               "--trace", str(trace), "--quick"],
            cwd=REPO, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        assert done.returncode == 0
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == names
        assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_measure_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to measure."""
    import shutil

    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload", "tm-churn",
         "--seed", "0", "--seconds", "25", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
