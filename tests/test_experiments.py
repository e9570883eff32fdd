"""Tests for the experiment infrastructure (reporting, common helpers, registry)."""

import numpy as np
import pytest

from repro.experiments.common import (
    SCALES,
    ScaleSpec,
    averaged_rows,
    build_dataset,
    build_embedding,
    build_model,
    compare_methods,
    get_scale,
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
        assert outcome.as_row()["method"] == "hash"

    def test_infeasible_run_reported_not_raised(self):
        dataset = build_dataset("avazu", scale=MICRO, seed=0, num_days=2)
        outcome = run_single(dataset, "adaembed", 1000.0, scale=MICRO, seed=0)
        assert not outcome.feasible
        assert "importance" in outcome.failure_reason

    def test_compare_methods_grid(self):
        dataset = build_dataset("avazu", scale=MICRO, seed=0, num_days=2)
        outcomes = compare_methods(dataset, ["full", "hash"], [1.0, 10.0], scale=MICRO, seed=0)
        # full runs only at CR 1, hash at both ratios.
        assert len(outcomes) == 3

    def test_averaged_rows_grouping(self):
        dataset = build_dataset("avazu", scale=MICRO, seed=0, num_days=2)
        rows = averaged_rows(dataset, ["hash"], [10.0], scale=MICRO, seeds=(0, 1))
        assert len(rows) == 1
        assert rows[0]["num_seeds"] == 2
        assert rows[0]["feasible"]


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
