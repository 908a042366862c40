"""Serialization round-trips and the command-line interface."""

import json

import pytest

from repro.core.advertisement import AdvertisementConfig
from repro.core.orchestrator import OrchestratorConfig, PainterOrchestrator
from repro.experiments.harness import ExperimentResult
from repro.io import (
    SerializationError,
    config_from_dict,
    config_to_dict,
    experiment_result_from_dict,
    experiment_result_to_dict,
    load_config,
    save_config,
)


class TestConfigSerialization:
    def test_roundtrip(self, tmp_path):
        config = AdvertisementConfig.from_pairs([(0, 1), (0, 2), (3, 9)])
        path = tmp_path / "config.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_empty_config_roundtrip(self):
        config = AdvertisementConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_json_is_plain(self, tmp_path):
        config = AdvertisementConfig.from_pairs([(0, 1)])
        path = tmp_path / "config.json"
        save_config(config, path)
        document = json.loads(path.read_text())
        assert document["kind"] == "painter-advertisement-config"
        assert document["prefixes"] == {"0": [1]}

    def test_wrong_kind_rejected(self):
        with pytest.raises(SerializationError):
            config_from_dict({"kind": "other", "version": 1, "prefixes": {}})

    def test_wrong_version_rejected(self):
        with pytest.raises(SerializationError):
            config_from_dict(
                {"kind": "painter-advertisement-config", "version": 99, "prefixes": {}}
            )

    @pytest.mark.parametrize(
        "prefixes",
        [None, {"x": [1]}, {"0": "not-a-list"}, {"0": ["str"]}],
    )
    def test_malformed_prefixes_rejected(self, prefixes):
        with pytest.raises(SerializationError):
            config_from_dict(
                {"kind": "painter-advertisement-config", "version": 1, "prefixes": prefixes}
            )


class TestExperimentResultSerialization:
    def test_roundtrip(self):
        result = ExperimentResult("figX", "demo", columns=["a", "b"])
        result.add_row("x", 1.5)
        result.add_note("n")
        restored = experiment_result_from_dict(experiment_result_to_dict(result))
        assert restored.rows == [("x", 1.5)]
        assert restored.notes == ["n"]
        assert restored.render() == result.render()

    def test_missing_fields_rejected(self):
        with pytest.raises(SerializationError):
            experiment_result_from_dict(
                {"kind": "painter-experiment-result", "version": 1}
            )


class TestCli:
    def test_info(self, capsys):
        from repro.cli import main

        assert main(["info", "--preset", "tiny", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "total possible benefit" in out

    def test_solve_with_output(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "cfg.json"
        code = main(
            [
                "solve", "--preset", "tiny", "--seed", "3",
                "--budget", "3", "--iterations", "1",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        assert load_config(out_path).prefix_count >= 1
        assert "cost:" in capsys.readouterr().out

    def test_failover(self, capsys):
        from repro.cli import main

        assert main(["run", "fig10"]) == 0
        assert "PAINTER downtime" in capsys.readouterr().out

    def test_validate(self, capsys):
        from repro.cli import main

        assert main(["validate", "--preset", "tiny", "--seed", "3"]) == 0
        assert "violations" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "chaos", "--storms", "0"], "need at least one storm"),
            (["soak", "--windows", "0", "--checkpoint-dir", "{tmp}"], "windows must be >= 1"),
        ],
    )
    def test_zero_count_rejected_by_config(self, tmp_path, argv, message):
        """The config's own check reports a zero count, not a ZeroDivisionError."""
        from repro.cli import main

        with pytest.raises(ValueError, match=message):
            main([arg.format(tmp=tmp_path) for arg in argv])

    def test_unknown_command_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_every_preset_flag_offers_exactly_the_presets(self):
        import argparse

        from repro.cli import build_parser
        from repro.scenario import PRESETS
        from repro.soak import SoakConfig

        def preset_choices(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from preset_choices(sub)
                elif "--preset" in action.option_strings:
                    yield action.choices

        choices = list(preset_choices(build_parser()))
        assert len(choices) > 10  # every scenario command and `run` entry
        assert all(sorted(c) == sorted(PRESETS) for c in choices)
        for name in PRESETS:
            assert SoakConfig(preset=name).preset == name


class TestRoutingModelPersistence:
    def test_roundtrip_preserves_predictions(self, scenario):
        from repro.core.routing_model import RoutingModel
        from repro.io import routing_model_to_dict, restore_routing_model
        from tests.test_eq2_pass import eq2, evaluator_for

        model = RoutingModel(scenario.catalog)
        ug = scenario.user_groups[0]
        advertised = frozenset(sorted(scenario.catalog.ingress_ids(ug))[:4])
        model.observe(ug, advertised, sorted(advertised)[0])

        fresh = RoutingModel(scenario.catalog)
        restore_routing_model(fresh, routing_model_to_dict(model))
        assert eq2(evaluator_for(scenario, fresh), ug, advertised) == eq2(
            evaluator_for(scenario, model), ug, advertised
        )

    def test_json_roundtrip_preserves_state(self, scenario):
        from repro.core.routing_model import RoutingModel
        from repro.io import restore_routing_model, routing_model_to_dict

        model = RoutingModel(scenario.catalog)
        ug = scenario.user_groups[1]
        advertised = frozenset(sorted(scenario.catalog.ingress_ids(ug))[:3])
        model.observe(ug, advertised, sorted(advertised)[-1])
        document = json.loads(json.dumps(routing_model_to_dict(model)))

        fresh = RoutingModel(scenario.catalog)
        restore_routing_model(fresh, document)
        assert fresh.snapshot_preferences() == model.snapshot_preferences()

    def test_bad_document_rejected(self, scenario):
        from repro.core.routing_model import RoutingModel
        from repro.io import SerializationError, restore_routing_model

        model = RoutingModel(scenario.catalog)
        with pytest.raises(SerializationError):
            restore_routing_model(model, {"kind": "painter-routing-model", "version": 1})

    def test_orchestrator_resumes_with_restored_model(self, scenario):
        """Persisted learning state carries across orchestrator instances."""
        from repro.core.orchestrator import PainterOrchestrator
        from repro.core.routing_model import RoutingModel
        from repro.io import restore_routing_model, routing_model_to_dict

        first = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=3))
        first.learn(iterations=2)
        document = routing_model_to_dict(first.model)

        model = RoutingModel(scenario.catalog)
        restore_routing_model(model, document)
        resumed = PainterOrchestrator(
            scenario, OrchestratorConfig(prefix_budget=3), model=model
        )
        assert resumed.solve() == first.solve()


class TestPacingEstimate:
    def test_iteration_duration_scales_with_budget(self, scenario):
        from repro.core.orchestrator import PainterOrchestrator

        small = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=2))
        large = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=50))
        assert large.estimated_iteration_duration_s() > small.estimated_iteration_duration_s()
        # Paper: ~30 s per prefix of computation dominates at scale.
        assert large.estimated_iteration_duration_s() >= 50 * 30.0

