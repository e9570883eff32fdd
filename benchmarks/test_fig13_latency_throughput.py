"""Benchmark regenerating Figure 13 (latency and throughput per method)."""

from conftest import run_once

from repro.experiments.latency import run_fig13_latency_throughput


def test_fig13_latency_throughput(benchmark, bench_scale):
    result = run_once(
        benchmark,
        run_fig13_latency_throughput,
        scale=bench_scale,
        methods=("hash", "qr", "adaembed", "cafe"),
        compression_ratio=10.0,
        repeats=3,
    )
    rows = {r["method"]: r for r in result.rows if r.get("feasible")}
    assert {"hash", "cafe"} <= set(rows)
    for row in rows.values():
        assert row["train_latency_ms"] > 0
        assert row["inference_latency_ms"] > 0
        assert row["train_throughput"] > 0
