"""Tests for the repro.bench micro-benchmark harness (tiny workloads)."""

import json

import numpy as np

from repro.bench import BenchConfig, make_workload, run_benchmarks, write_report

TINY = BenchConfig.smoke_config(num_features=2000, batch_size=64, steps=3, warmup_steps=1)


def test_workload_shapes_and_determinism():
    ids, grads = make_workload(TINY)
    assert ids.shape == (4, 64)
    assert grads.shape == (4, 64, 16)
    assert ids.min() >= 0 and ids.max() < TINY.num_features
    ids2, grads2 = make_workload(TINY)
    assert np.array_equal(ids, ids2)
    assert np.array_equal(grads, grads2)


def test_report_structure_and_write(tmp_path):
    report = run_benchmarks(TINY)
    assert report["schema_version"] == 3
    assert report["workload"]["smoke"] is True
    results = report["results"]
    for section in (
        "cafe_train_step",
        "hash_train_step",
        "hotsketch_insert",
        "shard_scaling",
        "serving",
        "shard_parallel",
        "online_pipeline",
        "optimizer_memory",
    ):
        assert section in results
    cafe = results["cafe_train_step"]
    assert set(cafe) == {"steps_per_s", "rows_per_s", "plan_reuse_rate", "phases"}
    assert cafe["steps_per_s"] > 0
    assert set(cafe["phases"]) == {"locate_ms", "admit_ms", "apply_ms", "sketch_ms"}
    # Every step is one plan build (lookup) + one reuse (apply_gradients).
    assert cafe["plan_reuse_rate"] == 0.5

    assert report["env"]["cpu_count"] >= 1

    scaling = results["shard_scaling"]
    assert scaling["shard_counts"] == [1, 2]  # smoke config drops the larger counts
    assert scaling["executors"] == ["serial", "threads", "processes"]
    assert {row["num_shards"] for row in scaling["rows"]} == {1, 2}
    assert {row["executor"] for row in scaling["rows"]} == set(scaling["executors"])
    assert all(row["steps_per_s"] > 0 for row in scaling["rows"])
    # Each executor carries its own 1-shard baseline.
    for row in scaling["rows"]:
        if row["num_shards"] == 1:
            assert row["relative_throughput"] == 1.0
    gate = scaling["gate"]
    assert gate["threshold"] == 2.0 and gate["executor"] == "processes"
    assert gate["measured"] is None  # smoke run stops at 2 shards
    assert gate["cpu_count"] == report["env"]["cpu_count"]

    # Gradient-exchange byte comparison rides in the shard_scaling section
    # and measures even in smoke (serial store, payload accounting only).
    exchange = scaling["grad_exchange"]
    assert {row["mode"] for row in exchange["rows"]} == {"dense", "sketched"}
    assert all(row["grad_bytes_per_step"] > 0 for row in exchange["rows"])
    assert exchange["gate"]["measured"] is not None

    # AUC-vs-optimizer-memory: the exact baseline plus >= 2 sketched
    # memory fractions, even in smoke runs.
    optim = results["optimizer_memory"]
    fractions = [
        row["memory_fraction"]
        for row in optim["rows"]
        if row["optimizer"] != "adagrad"
    ]
    assert len(fractions) >= 2
    assert all(frac is not None and frac < 1.0 for frac in fractions)
    assert optim["rows"][0]["optimizer"] == "adagrad"
    assert optim["rows"][0]["memory_fraction"] == 1.0
    assert "gate" in optim
    serving = results["serving"]
    assert all(row["requests_per_s"] > 0 and row["p99_ms"] >= row["p50_ms"] for row in serving["rows"])
    assert set(results["hash_train_step"]) == {"steps_per_s", "rows_per_s", "plan_reuse_rate"}
    assert results["hotsketch_insert"]["keys_per_s"] > 0

    # Shard-parallel fan-out over stalling (remote-like) shards.  The hard
    # ≥ 1.5x acceptance bar at 4+ shards is asserted with wide margin in
    # tests/test_runtime_executor.py (pure-sleep tasks, ~3x headroom); the
    # bench measurement rides on real lookups too, so use a gentler
    # tripwire that survives loaded CI runners.
    parallel = results["shard_parallel"]
    assert parallel["shard_counts"] == [1, 2, 4]  # smoke keeps up to 4 shards
    wide_rows = [row for row in parallel["rows"] if row["num_shards"] >= 4]
    assert wide_rows and all(row["fanout_speedup"] >= 1.2 for row in wide_rows)

    # Online pipeline: serving never lags the configured publish cadence.
    pipeline = results["online_pipeline"]
    assert {row["executor"] for row in pipeline["rows"]} == {"serial", "threads", "processes"}
    for row in pipeline["rows"]:
        assert row["staleness_within_cadence"] is True
        assert row["max_staleness_steps"] <= row["cadence_steps"]
        assert row["publishes"] > 0
        assert row["steps_per_s"] > 0

    path = write_report(report, tmp_path / "BENCH_embedding.json")
    envelope = json.loads(path.read_text())
    assert envelope["history"] == []
    assert envelope["latest"]["results"] == report["results"]
    assert "recorded_at" in envelope["latest"]


def test_write_report_appends_history(tmp_path):
    path = tmp_path / "BENCH_embedding.json"
    first = {"schema_version": 2, "workload": {"smoke": True}, "results": {"metric": 1}}
    second = {"schema_version": 2, "workload": {"smoke": True}, "results": {"metric": 2}}
    write_report(first, path)
    write_report(second, path)
    envelope = json.loads(path.read_text())
    assert envelope["latest"]["results"] == {"metric": 2}
    assert [entry["results"] for entry in envelope["history"]] == [{"metric": 1}]


def test_write_report_migrates_v1_file(tmp_path):
    """A pre-history (schema 1) report file becomes the first history entry."""
    path = tmp_path / "BENCH_embedding.json"
    v1 = {"schema_version": 1, "workload": {}, "results": {"metric": 0}}
    path.write_text(json.dumps(v1))
    write_report({"schema_version": 2, "workload": {}, "results": {"metric": 3}}, path)
    envelope = json.loads(path.read_text())
    assert [entry["results"] for entry in envelope["history"]] == [{"metric": 0}]
    assert envelope["latest"]["results"] == {"metric": 3}
