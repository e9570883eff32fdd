"""Benchmarks for the sharded store and the snapshot serving path.

Two sections feed ``BENCH_embedding.json``:

* ``shard_scaling`` — embedding train-step throughput of a
  :class:`~repro.store.sharded.ShardedEmbeddingStore` at increasing shard
  counts, per backend **and per executor** (``serial`` / ``threads`` /
  ``processes``).  The serial rows measure partitioning overhead; the
  threaded rows are honestly GIL-bound (CPU work serializes, so expect
  ≈ 1.0 or below); the process rows are where real scaling can appear —
  each shard lives in a pinned worker with shared-memory tables, so on a
  machine with enough cores the N-shard store approaches N× one shard.
  The section's ``gate`` object records the acceptance metric (process
  executor, hash backend, 4 shards vs 1) alongside the host ``cpu_count``
  so a reader can tell a real regression from a core-starved runner.
* ``serving`` — request throughput and p50/p95/p99 latency of the
  micro-batching engine over a copy-on-write store snapshot, at several
  micro-batch sizes.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.models.dlrm import DLRM
from repro.runtime.executor import create_executor
from repro.serving.engine import ServingEngine
from repro.store import ShardedEmbeddingStore
from repro.utils.zipf import ZipfDistribution

#: Fields of the synthetic serving model (numerical-free DLRM).
SERVING_FIELDS = 4


#: Executors the scaling benchmark sweeps; each gets its own 1-shard baseline.
SCALING_EXECUTORS = ("serial", "threads", "processes")

#: The acceptance gate: process-executor speedup at this shard count vs 1.
GATE_SHARDS = 4
GATE_THRESHOLD = 2.0

#: The gradient-exchange gate: dense / sketched payload bytes per step at
#: :data:`GATE_SHARDS` shards must reach this reduction factor.  Both modes
#: ship one row per *distinct* id, so this is what the sketch itself buys:
#: measured 1.619x on the full bench workload (80 900 B dense = 8 B id + 64 B
#: summed gradient + 8 B score per id, against 49 969.5 B sketched); the
#: 2.95x recorded earlier divided an un-deduplicated dense payload
#: (147 456 B) by the deduplicated sketched one.
GRAD_EXCHANGE_THRESHOLD = 1.5


def _shard_scaling_gate(
    measured: dict[tuple[str, str, int], float],
    methods: tuple[str, ...],
) -> dict:
    """The ``gate`` object recorded next to the shard-scaling rows.

    ``measured`` maps ``(method, executor, num_shards) -> seconds/step``.
    The gate compares the process executor at :data:`GATE_SHARDS` shards
    against its own 1-shard baseline, per method; ``cpu_constrained`` flags
    hosts that physically cannot reach the threshold (fewer cores than
    shards), which is how CI distinguishes "regression" from "small runner".
    """
    cpu_count = os.cpu_count() or 1
    per_method = {}
    for method in methods:
        base = measured.get((method, "processes", 1))
        scaled = measured.get((method, "processes", GATE_SHARDS))
        if base is None or scaled is None:
            continue
        per_method[method] = {"speedup_vs_one_shard": round(base / scaled, 3)}
    hash_entry = per_method.get("hash")
    measured_speedup = hash_entry["speedup_vs_one_shard"] if hash_entry else None
    return {
        "metric": f"hash shards={GATE_SHARDS} processes speedup vs 1 shard",
        "executor": "processes",
        "num_shards": GATE_SHARDS,
        "threshold": GATE_THRESHOLD,
        "measured": measured_speedup,
        "cpu_count": cpu_count,
        "cpu_constrained": cpu_count < GATE_SHARDS,
        "passed": measured_speedup is not None and measured_speedup >= GATE_THRESHOLD,
        "per_method": per_method,
    }


def bench_shard_scaling(
    config,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    methods: tuple[str, ...] = ("hash", "cafe"),
    executors: tuple[str, ...] = SCALING_EXECUTORS,
) -> dict:
    """Train-step throughput per backend, executor and shard count."""
    from repro.bench.embedding_bench import make_workload, time_train_steps

    if config.smoke:
        shard_counts = tuple(s for s in shard_counts if s <= 2)
    ids, grads = make_workload(config)
    rows = []
    measured: dict[tuple[str, str, int], float] = {}
    for method in methods:
        for executor_kind in executors:
            baseline_seconds = None
            for num_shards in shard_counts:
                store = ShardedEmbeddingStore.build(
                    method,
                    num_features=config.num_features,
                    dim=config.dim,
                    num_shards=num_shards,
                    compression_ratio=config.compression_ratio,
                    seed=config.seed,
                    dtype=config.dtype,
                    executor=create_executor(executor_kind),
                )
                try:
                    seconds = time_train_steps(store, ids, grads, config.warmup_steps)
                finally:
                    store.executor.close()
                if baseline_seconds is None:
                    baseline_seconds = seconds
                measured[(method, executor_kind, num_shards)] = seconds
                rows.append(
                    {
                        "method": method,
                        "executor": executor_kind,
                        "num_shards": num_shards,
                        "steps_per_s": round(1.0 / seconds, 2),
                        "rows_per_s": round(config.batch_size / seconds, 1),
                        # vs the same executor's 1-shard run; < 1 means the
                        # partition pass (or the fan-out) costs throughput.
                        "relative_throughput": round(baseline_seconds / seconds, 3),
                        "plan_reuse_rate": store.plan_stats.reuse_rate,
                    }
                )
    return {
        "shard_counts": list(shard_counts),
        "executors": list(executors),
        "rows": rows,
        "gate": _shard_scaling_gate(measured, methods),
        "grad_exchange": bench_grad_exchange(config),
    }


def bench_grad_exchange(
    config, num_shards: int = GATE_SHARDS, max_steps: int = 8
) -> dict:
    """Exchange payload bytes per train step, dense vs sketched, same workload.

    The byte accounting is the payload size crossing the trainer→shard
    boundary (``ExecutorStats.record_grad_exchange``) — actual shm traffic
    under the process executor, the identically-sized in-process handoff
    otherwise — so a serial run measures the same number the process runtime
    ships, without paying worker startup in the benchmark.
    """
    from repro.bench.embedding_bench import make_workload

    ids, grads = make_workload(config)
    steps = min(ids.shape[0], max_steps)
    rows = []
    measured: dict[str, float] = {}
    for mode in ("dense", "sketched"):
        store = ShardedEmbeddingStore.build(
            "hash",
            num_features=config.num_features,
            dim=config.dim,
            num_shards=num_shards,
            compression_ratio=config.compression_ratio,
            seed=config.seed,
            dtype=config.dtype,
            grad_exchange=mode,
        )
        try:
            for step in range(steps):
                store.lookup(ids[step])
                store.apply_gradients(ids[step], grads[step])
            bytes_per_step = store.executor.stats.grad_bytes_per_step
        finally:
            store.executor.close()
        measured[mode] = bytes_per_step
        rows.append(
            {
                "mode": mode,
                "num_shards": num_shards,
                "steps": steps,
                "grad_bytes_per_step": round(bytes_per_step, 1),
            }
        )
    reduction = (
        round(measured["dense"] / measured["sketched"], 3)
        if measured.get("sketched")
        else None
    )
    return {
        "rows": rows,
        "gate": {
            "metric": (
                f"deduplicated dense / sketched grad_bytes_per_step at {num_shards} shards"
            ),
            "num_shards": num_shards,
            "threshold": GRAD_EXCHANGE_THRESHOLD,
            "measured": reduction,
            "passed": reduction is not None and reduction >= GRAD_EXCHANGE_THRESHOLD,
        },
    }


def bench_serving_throughput(
    config,
    micro_batches: tuple[int, ...] = (1, 16, 64, 256),
    num_shards: int = 2,
    warmup_requests: int = 32,
) -> dict:
    """Requests/s and tail latency of snapshot serving per micro-batch size."""
    if config.smoke:
        micro_batches = tuple(m for m in micro_batches if m <= 64)
    num_requests = min(config.steps * config.batch_size, 2048 if config.smoke else 8192)
    zipf = ZipfDistribution(config.num_features, config.zipf_exponent)
    categorical = zipf.sample(num_requests * SERVING_FIELDS, rng=config.seed + 5)
    categorical = categorical.reshape(num_requests, SERVING_FIELDS)

    store = ShardedEmbeddingStore.build(
        "cafe",
        num_features=config.num_features,
        dim=config.dim,
        num_shards=num_shards,
        compression_ratio=config.compression_ratio,
        seed=config.seed,
        dtype=config.dtype,
    )
    model = DLRM(store, num_fields=SERVING_FIELDS, num_numerical=0, rng=config.seed)

    rows = []
    for micro_batch in micro_batches:
        engine = ServingEngine(model, max_batch_size=micro_batch)
        for row in range(min(warmup_requests, num_requests)):
            engine.submit(categorical[row])
        engine.flush()
        engine.latency.reset()

        start = time.perf_counter()
        for row in range(num_requests):
            engine.submit(categorical[row])
        engine.flush()
        elapsed = time.perf_counter() - start

        stats = engine.latency.summary()
        rows.append(
            {
                "micro_batch": micro_batch,
                "requests_per_s": round(num_requests / elapsed, 1),
                "p50_ms": stats["p50_ms"],
                "p95_ms": stats["p95_ms"],
                "p99_ms": stats["p99_ms"],
            }
        )
    return {"num_shards": num_shards, "requests": int(num_requests), "rows": rows}
