"""Tests for the experiment infrastructure (reporting, common helpers, registry)."""

import numpy as np
import pytest

from repro.data.drift import RotatingDrift
from repro.experiments.common import (
    SCALES,
    RunConfig,
    ScaleSpec,
    World,
    build_dataset,
    build_embedding,
    build_model,
    get_scale,
    grid,
    mean_curve,
    mean_rows,
    run_paired,
    run_single,
)
from repro.experiments.registry import EXPERIMENTS, list_experiments, run_experiment
from repro.experiments.reporting import ExperimentResult, format_table

# A deliberately small scale so experiment-level tests stay fast.
MICRO = ScaleSpec("micro", base_cardinality=60, samples_per_day=400, batch_size=100, test_samples=400)


class TestReporting:
    def test_add_row(self):
        result = ExperimentResult("figX", "title")
        result.add_row(method="hash", auc=0.7)
        result.add_row(method="cafe", auc=0.8)
        assert [row.get("method") for row in result.rows] == ["hash", "cafe"]

    def test_filter_rows(self):
        result = ExperimentResult("figX", "title")
        result.add_row(method="hash", cr=10)
        result.add_row(method="hash", cr=100)
        result.add_row(method="cafe", cr=10)
        assert len(result.filter_rows(method="hash")) == 2
        assert len(result.filter_rows(method="hash", cr=10)) == 1

    def test_to_text_contains_rows_and_notes(self):
        result = ExperimentResult("figX", "My Title")
        result.add_row(a=1, b=2.5)
        result.add_note("something important")
        text = result.to_text()
        assert "My Title" in text
        assert "something important" in text
        assert "2.5" in text

    def test_timing_columns_are_left_out_on_request(self):
        result = ExperimentResult("figX", "My Title", timing_columns=("latency_ms",))
        result.add_row(method="cafe", test_auc=0.75, latency_ms=3.125)
        assert "latency_ms" in result.to_text() and "3.125" in result.to_text()
        tracked = result.to_text(timing=False)
        assert "latency_ms" not in tracked and "3.125" not in tracked
        assert "test_auc" in tracked and "0.75" in tracked

    def test_format_table_alignment_and_missing(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22}]
        table = format_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"tiny", "small", "medium"}
        assert get_scale("tiny").name == "tiny"

    def test_get_scale_passthrough(self):
        assert get_scale(MICRO) is MICRO

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("huge")


class TestBuilders:
    def test_build_dataset_preset(self):
        dataset = build_dataset("criteo", scale=MICRO, seed=0)
        assert dataset.schema.num_fields == 26
        assert dataset.config.samples_per_day == 400

    def test_build_dataset_num_days_override(self):
        dataset = build_dataset("criteotb", scale=MICRO, seed=0, num_days=3)
        assert dataset.num_days == 3

    def test_build_embedding_passes_side_information(self):
        dataset = build_dataset("criteo", scale=MICRO, seed=0, num_days=2)
        offline = build_embedding("offline", dataset, 10.0, seed=0)
        assert offline.num_features == dataset.schema.num_features
        mde = build_embedding("mde", dataset, 2.0, seed=0)
        assert mde.memory_floats() <= dataset.schema.embedding_parameters / 2 + 16

    def test_build_model(self):
        dataset = build_dataset("avazu", scale=MICRO, seed=0, num_days=2)
        embedding = build_embedding("hash", dataset, 10.0, seed=0)
        model = build_model("wdl", embedding, dataset.schema, seed=0)
        assert model.num_fields == dataset.schema.num_fields


class TestRunSingle:
    def test_feasible_run_produces_metrics(self):
        dataset = build_dataset("avazu", scale=MICRO, seed=0, num_days=2)
        outcome = run_single(dataset, "hash", 10.0, scale=MICRO, seed=0)
        assert outcome.feasible
        assert np.isfinite(outcome.train_loss)
        assert 0.0 <= outcome.test_auc <= 1.0
        assert outcome.achieved_ratio >= 10.0
        assert outcome.method == "hash"

    def test_infeasible_run_reported_not_raised(self):
        dataset = build_dataset("avazu", scale=MICRO, seed=0, num_days=2)
        outcome = run_single(dataset, "adaembed", 1000.0, scale=MICRO, seed=0)
        assert not outcome.feasible
        assert "importance" in outcome.failure_reason



class TestPairedRunner:
    WORLD = World("avazu", num_days=2)

    def test_grid_runs_full_at_cr_1_only(self):
        configs = grid(["full", "hash"], [1.0, 10.0])
        assert [(c.method, c.compression_ratio) for c in configs] == [
            ("full", 1.0), ("hash", 1.0), ("hash", 10.0)
        ]
        outcomes = run_paired(self.WORLD, configs, scale=MICRO, seeds=(0,))
        assert set(outcomes) == {(config, 0) for config in configs}

    def test_each_seed_trains_on_its_own_world(self):
        """Seed s's outcome of every config is run_single on the world built
        from s with model seed s: all configs of one seed share that world."""
        configs = [
            RunConfig("hash", 10.0),
            RunConfig("cafe", 10.0, embedding_kwargs=(("decay", 0.9),), days=(0,), eval_every=2),
        ]
        seeds = (0, 1)
        outcomes = run_paired(self.WORLD, configs, scale=MICRO, seeds=seeds)
        assert list(outcomes) == [(config, seed) for seed in seeds for config in configs]
        for seed in seeds:
            dataset = build_dataset("avazu", scale=MICRO, seed=seed, num_days=2)
            for config in configs:
                expected = run_single(
                    dataset, config.method, config.compression_ratio, scale=MICRO, seed=seed,
                    eval_every=config.eval_every, embedding_kwargs=dict(config.embedding_kwargs),
                    days=config.days,
                )
                got = outcomes[config, seed]
                assert got.history.losses == expected.history.losses
                assert got.history.eval_aucs == expected.history.eval_aucs
                assert (got.test_auc, got.test_log_loss) == (expected.test_auc, expected.test_log_loss)
        # Seed 1 is another world, not seed 0's world with another model.
        hash_run = configs[0]
        seed0_world = build_dataset("avazu", scale=MICRO, seed=0, num_days=2)
        on_seed0_world = run_single(seed0_world, "hash", 10.0, scale=MICRO, seed=1)
        assert outcomes[hash_run, 1].history.losses != on_seed0_world.history.losses

    def test_world_drift_follows_the_seed(self):
        """A world's drift is seeded as the default drift is: seed + 1."""
        world = World("criteo", swap_fraction=0.15)
        base = np.arange(50, dtype=np.int64)
        for seed in (0, 3):
            drift = world.build(MICRO, seed).drift
            expected = RotatingDrift(swap_fraction=0.15, seed=seed + 1)
            assert np.array_equal(
                drift.permutation_for_day(3, 50, base), expected.permutation_for_day(3, 50, base)
            )

    def test_mean_rows_average_feasible_seeds(self):
        configs = [RunConfig("hash", 10.0), RunConfig("adaembed", 1000.0)]
        outcomes = run_paired(self.WORLD, configs, scale=MICRO, seeds=(0, 1))
        rows = mean_rows(outcomes)
        assert list(rows) == configs
        feasible = rows[configs[0]]
        runs = [outcomes[configs[0], seed] for seed in (0, 1)]
        assert feasible["feasible"] and feasible["num_seeds"] == 2
        assert feasible["train_loss"] == round(float(np.mean([r.train_loss for r in runs])), 4)
        assert feasible["test_auc"] == round(float(np.mean([r.test_auc for r in runs])), 4)
        assert feasible["achieved_ratio"] == round(float(np.mean([r.achieved_ratio for r in runs])), 1)
        # AdaEmbed is infeasible at CR 1000: a NaN row, no seed counted.
        infeasible = rows[configs[1]]
        assert not infeasible["feasible"] and infeasible["num_seeds"] == 0
        for metric in ("achieved_ratio", "train_loss", "test_auc", "test_log_loss"):
            assert np.isnan(infeasible[metric])

    def test_mean_curve_of_one_seed_is_its_curve(self):
        config = RunConfig("hash", 10.0)
        outcomes = run_paired(self.WORLD, [config], scale=MICRO, seeds=(0, 1))
        curves = [outcomes[config, seed].history.smoothed_losses() for seed in (0, 1)]
        single = {key: value for key, value in outcomes.items() if key[1] == 0}
        assert np.array_equal(mean_curve(single, config), curves[0])
        assert np.array_equal(mean_curve(outcomes, config), np.mean(curves, axis=0))


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"table2", "fig2", "fig3", "fig7", "fig8", "fig9", "fig10", "fig11",
                    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18"}
        assert set(list_experiments()) == expected

    def test_specs_have_runners_and_references(self):
        for spec in EXPERIMENTS.values():
            assert callable(spec.runner)
            assert spec.paper_reference.startswith(("Table", "Figure"))

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_run_table2(self):
        result = run_experiment("table2")
        assert result.experiment_id == "table2"
        assert len(result.rows) == 4
        datasets = {row["dataset"] for row in result.rows}
        assert datasets == {"avazu", "criteo", "kdd12", "criteotb"}

    def test_run_fig7_probability_shape(self):
        result = run_experiment("fig7", gammas=(1e-4, 1e-3), zipf_exponents=(1.2, 1.8))
        assert len(result.rows) == 4
        grid = result.extras["probability_grid"]
        assert grid.shape == (2, 2)
        # Hotter features and more skew → higher probability.
        assert grid[1, 1] >= grid[0, 0]
