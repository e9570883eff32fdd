"""Tests for ``python -m repro experiment`` and the extra ablation runners."""

import numpy as np
import pytest

from repro.api.cli import build_parser, main
from repro.experiments.ablations import run_ablation_adaptivity, run_ablation_slots_per_bucket
from repro.experiments.common import ScaleSpec
from repro.experiments.registry import ABLATIONS, list_experiments, run_experiment

MICRO = ScaleSpec("micro", base_cardinality=60, samples_per_day=400, batch_size=100, test_samples=400, max_days=3)


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["experiment", "list"])
        assert args.action == "list"

    def test_run_command_parses(self):
        args = build_parser().parse_args(
            ["experiment", "run", "fig7", "--scale", "small", "--seeds", "3"]
        )
        assert args.experiment == "fig7"
        assert args.scale == "small"
        assert args.seeds == [3]

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "run", "fig99"])

    def test_sweep_command_parses(self):
        args = build_parser().parse_args(
            ["experiment", "sweep", "--dataset", "avazu", "--methods", "hash", "cafe",
             "--ratios", "10", "50", "--seeds", "0", "1"]
        )
        assert args.methods == ["hash", "cafe"]
        assert args.ratios == [10.0, 50.0]
        assert args.seeds == [0, 1]

    @pytest.mark.parametrize("action", [["run", "fig8"], ["sweep"]])
    def test_seeds_default_to_one_seed(self, action):
        assert build_parser().parse_args(["experiment", *action]).seeds == [0]

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])

    def test_help_lists_the_three_actions(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "--help"])
        assert exit_info.value.code == 0
        assert "{list,run,sweep}" in capsys.readouterr().out


class TestMain:
    def test_list_output(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert "ablation_slots" in out

    def test_run_cheap_experiment(self, capsys):
        assert main(["experiment", "run", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3.3" in out or "probability" in out

    def test_run_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "out" / "table2.txt"
        assert main(["experiment", "run", "table2", "--output", str(target)]) == 0
        assert target.exists()
        assert "criteo" in target.read_text()

    def test_run_table2_respects_seed_and_scale(self, capsys):
        assert main(["experiment", "run", "table2", "--scale", "small", "--seeds", "5"]) == 0
        assert "criteotb" in capsys.readouterr().out

    def test_run_averages_over_seeds(self, capsys):
        assert main(["experiment", "run", "fig16", "--scale", "tiny", "--seeds", "0", "1"]) == 0
        header, *rows = [line for line in capsys.readouterr().out.splitlines() if "|" in line]
        column = [name.strip() for name in header.split("|")].index("num_seeds")
        assert [row.split("|")[column].strip() for row in rows] == ["2"] * 8

    @pytest.mark.parametrize("experiment", ["fig2", "fig3", "fig7", "fig9", "fig13", "fig18"])
    def test_single_seed_experiment_refuses_two_seeds(self, experiment, capsys):
        assert main(["experiment", "run", experiment, "--seeds", "0", "1"]) == 2
        assert f"{experiment} takes one seed" in capsys.readouterr().err


class TestAblationRegistry:
    def test_ablations_registered(self):
        assert set(ABLATIONS) == {"ablation_slots", "ablation_adaptivity"}
        assert "ablation_slots" in list_experiments(include_ablations=True)
        assert "ablation_slots" not in list_experiments()

    def test_run_experiment_dispatches_to_ablations(self):
        result = run_experiment(
            "ablation_slots", scale=MICRO, seeds=(0,), compression_ratio=20.0, slots_options=(4,)
        )
        assert result.experiment_id == "ablation_slots"
        assert len(result.rows) == 1


class TestAblationRunners:
    def test_slots_per_bucket_rows(self):
        result = run_ablation_slots_per_bucket(
            scale=MICRO, seeds=(0,), compression_ratio=20.0, slots_options=(2, 4)
        )
        assert [row["slots_per_bucket"] for row in result.rows] == [2, 4]
        for row in result.rows:
            assert np.isfinite(row["train_loss"])
            assert 0.0 <= row["test_auc"] <= 1.0

    def test_adaptivity_variants_present(self):
        result = run_ablation_adaptivity(scale=MICRO, seeds=(0,), compression_ratio=20.0)
        variants = {row["variant"] for row in result.rows}
        assert variants == {"cafe", "cafe_no_decay", "cafe_no_migration", "hash"}
        for row in result.rows:
            assert np.isfinite(row["train_loss"])
        # A MICRO run is 4 x 2 steps, far short of CAFE's decay interval.
        assert result.notes[-1] == (
            "no decay fired: a run is 8 steps and CAFE decays every 1000, "
            "so cafe_no_decay repeats cafe's run"
        )
