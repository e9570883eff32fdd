"""Micro-benchmark harness for the embedding hot path.

Times the embedding-layer training step (lookup + apply_gradients) on the
CAFE Zipf workload, plus the sharded-store scaling and snapshot serving
benchmarks from :mod:`repro.bench.store_bench`.  Results are written
to ``BENCH_embedding.json``; the file keeps the latest report under
``latest`` and appends every superseded report to a timestamped ``history``
list so the performance trajectory is tracked PR over PR.

Run it with::

    PYTHONPATH=src python -m repro.bench --smoke   # CI-sized
    PYTHONPATH=src python -m repro.bench           # full numbers
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.bench.group_bench import bench_table_group
from repro.bench.optim_bench import bench_optimizer_memory
from repro.bench.runtime_bench import (
    bench_online_pipeline,
    bench_replica_serving,
    bench_shard_parallel,
)
from repro.bench.store_bench import bench_serving_throughput, bench_shard_scaling
from repro.embeddings.cafe import CafeEmbedding
from repro.embeddings.hash_embedding import HashEmbedding
from repro.embeddings.memory import MemoryBudget
from repro.sketch.hotsketch import HotSketch
from repro.utils.zipf import ZipfDistribution

DEFAULT_OUTPUT = "BENCH_embedding.json"

#: Where the report envelope and per-section schemas are documented.
BENCH_DOCS = "docs/benchmarks.md"

#: Superseded reports kept in the on-disk history (oldest dropped first);
#: pruned on every write so the envelope stops growing without bound.
MAX_HISTORY = 20


@dataclass(frozen=True)
class BenchConfig:
    """Size of the Zipf training workload driven through each layer."""

    num_features: int = 100_000
    dim: int = 16
    batch_size: int = 2048
    steps: int = 50
    warmup_steps: int = 5
    zipf_exponent: float = 1.05
    compression_ratio: float = 10.0
    dtype: str = "float32"
    seed: int = 0
    smoke: bool = False

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError(f"steps must be positive, got {self.steps}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be non-negative, got {self.warmup_steps}")

    @classmethod
    def smoke_config(cls, **overrides) -> "BenchConfig":
        defaults = dict(num_features=20_000, batch_size=512, steps=8, warmup_steps=2, smoke=True)
        defaults.update(overrides)
        return cls(**defaults)

    def as_dict(self) -> dict:
        return {
            "num_features": self.num_features,
            "dim": self.dim,
            "batch_size": self.batch_size,
            "steps": self.steps,
            "zipf_exponent": self.zipf_exponent,
            "compression_ratio": self.compression_ratio,
            "dtype": self.dtype,
            "seed": self.seed,
            "smoke": self.smoke,
        }


def make_workload(config: BenchConfig) -> tuple[np.ndarray, np.ndarray]:
    """Zipf-distributed id stream + synthetic per-lookup gradients.

    Returns ``(ids, grads)`` of shapes ``(steps, batch)`` and
    ``(steps, batch, dim)`` covering warmup and timed steps.
    """
    total_steps = config.steps + config.warmup_steps
    zipf = ZipfDistribution(config.num_features, config.zipf_exponent)
    ids = zipf.sample(total_steps * config.batch_size, rng=config.seed)
    ids = ids.reshape(total_steps, config.batch_size)
    rng = np.random.default_rng(config.seed + 1)
    grads = rng.normal(scale=0.1, size=(total_steps, config.batch_size, config.dim))
    return ids, grads.astype(np.float32)


def time_train_steps(embedding, ids: np.ndarray, grads: np.ndarray, warmup: int) -> float:
    """Drive lookup + apply_gradients over the workload; returns seconds/step."""
    for step in range(warmup):
        embedding.lookup(ids[step])
        embedding.apply_gradients(ids[step], grads[step])
    timed = ids.shape[0] - warmup
    start = time.perf_counter()
    for step in range(warmup, ids.shape[0]):
        embedding.lookup(ids[step])
        embedding.apply_gradients(ids[step], grads[step])
    return (time.perf_counter() - start) / timed


def _phase_breakdown_ms(embedding, timed_steps: int, before: dict) -> dict:
    """Per-step phase attribution (milliseconds) from phase_snapshot diffs."""
    after = embedding.phase_snapshot()
    return {
        f"{phase}_ms": round((after[phase] - before[phase]) / timed_steps / 1e6, 4)
        for phase in ("locate", "admit", "apply", "sketch")
    }


def bench_cafe_train_step(config: BenchConfig) -> dict:
    """CAFE train-step throughput with its per-phase breakdown."""
    ids, grads = make_workload(config)
    budget = MemoryBudget.from_compression_ratio(
        config.num_features, config.dim, config.compression_ratio
    )
    embedding = CafeEmbedding.from_budget(budget, dtype=config.dtype, rng=config.seed)
    for step in range(config.warmup_steps):
        embedding.lookup(ids[step])
        embedding.apply_gradients(ids[step], grads[step])
    before = embedding.phase_snapshot()
    seconds = time_train_steps(
        embedding, ids[config.warmup_steps:], grads[config.warmup_steps:], 0
    )
    return {
        "steps_per_s": round(1.0 / seconds, 2),
        "rows_per_s": round(config.batch_size / seconds, 1),
        "plan_reuse_rate": embedding.plan_stats.reuse_rate,
        "phases": _phase_breakdown_ms(embedding, config.steps, before),
    }


def bench_hash_train_step(config: BenchConfig) -> dict:
    """Hash-embedding train-step throughput (the paper's fastest baseline)."""
    ids, grads = make_workload(config)
    rows = max(int(config.num_features / config.compression_ratio), 1)
    embedding = HashEmbedding(
        config.num_features, config.dim, num_rows=rows, dtype=config.dtype, rng=config.seed
    )
    seconds = time_train_steps(embedding, ids, grads, config.warmup_steps)
    return {
        "steps_per_s": round(1.0 / seconds, 2),
        "rows_per_s": round(config.batch_size / seconds, 1),
        "plan_reuse_rate": embedding.plan_stats.reuse_rate,
    }


def bench_hotsketch_insert(config: BenchConfig) -> dict:
    """Raw sketch insertion throughput."""
    ids, _ = make_workload(config)
    scores = np.abs(np.random.default_rng(config.seed + 2).normal(size=ids.shape)) + 0.01
    num_buckets = max(config.num_features // 100, 16)
    sketch = HotSketch(num_buckets=num_buckets, slots_per_bucket=4, hot_threshold=1.0, seed=3)
    start = time.perf_counter()
    for step in range(ids.shape[0]):
        sketch.insert(ids[step], scores[step])
    seconds = time.perf_counter() - start
    return {"keys_per_s": round(ids.size / seconds, 1)}


def bench_environment() -> dict:
    """The host facts a reader needs to judge parallel-scaling numbers."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def run_benchmarks(config: BenchConfig) -> dict:
    """Run every micro-benchmark; returns the JSON-ready report."""
    return {
        "schema_version": 3,
        "workload": config.as_dict(),
        "env": bench_environment(),
        "results": {
            "cafe_train_step": bench_cafe_train_step(config),
            "hash_train_step": bench_hash_train_step(config),
            "hotsketch_insert": bench_hotsketch_insert(config),
            "shard_scaling": bench_shard_scaling(config),
            "serving": bench_serving_throughput(config),
            "shard_parallel": bench_shard_parallel(config),
            "online_pipeline": bench_online_pipeline(config),
            "replica_serving": bench_replica_serving(config),
            "table_group": bench_table_group(config),
            "optimizer_memory": bench_optimizer_memory(config),
        },
    }


def _load_previous(path: Path) -> tuple[dict | None, list[dict]]:
    """Previous ``(latest, history)`` from ``path``, tolerating old formats."""
    if not path.exists():
        return None, []
    try:
        previous = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError):
        return None, []
    if not isinstance(previous, dict):
        return None, []
    if "latest" in previous:  # current envelope
        history = previous.get("history", [])
        return previous.get("latest"), history if isinstance(history, list) else []
    if "results" in previous:  # schema_version 1: the report was the file
        return previous, []
    return None, []


def write_report(report: dict, output: str | Path = DEFAULT_OUTPUT) -> Path:
    """Write ``report`` as the latest run, pushing the prior run into history.

    The file is an envelope ``{"latest": ..., "history": [...]}``; each run
    is stamped with a UTC ``recorded_at`` so the perf trajectory across PRs
    survives in one artifact instead of being overwritten.
    """
    path = Path(output)
    previous_latest, history = _load_previous(path)
    if previous_latest is not None:
        history.append(previous_latest)
    history = history[-MAX_HISTORY:]
    stamped = dict(report)
    stamped.setdefault(
        "recorded_at", datetime.now(timezone.utc).isoformat(timespec="seconds")
    )
    envelope = {"latest": stamped, "history": history}
    path.write_text(json.dumps(envelope, indent=2) + "\n", encoding="utf-8")
    return path
