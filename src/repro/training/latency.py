"""Latency and throughput measurement (paper §5.2.5, Figure 13).

The paper measures per-batch training and inference latency of each
compression method at a fixed compression ratio; the differences come almost
entirely from the embedding layer (lookup + update + any migration logic),
because data loading and the dense network are identical across methods.
These helpers time exactly those code paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.data.stream import Batch
from repro.models.base import RecommendationModel
from repro.training.trainer import Trainer


@dataclass
class LatencyReport:
    """Timing results for one method."""

    method: str
    train_latency_ms: float
    inference_latency_ms: float
    train_throughput: float
    inference_throughput: float
    #: Fraction of lookup/apply_gradients pairs that reused one routing plan
    #: (1 lookup + 1 update per step → 0.5 means every step shared its plan).
    plan_reuse_rate: float = 0.0

    def as_row(self) -> dict[str, float | str]:
        return {
            "method": self.method,
            "train_latency_ms": round(self.train_latency_ms, 3),
            "inference_latency_ms": round(self.inference_latency_ms, 3),
            "train_throughput": round(self.train_throughput, 1),
            "inference_throughput": round(self.inference_throughput, 1),
            "plan_reuse_rate": round(self.plan_reuse_rate, 3),
        }


def measure_latency(
    model: RecommendationModel,
    train_batch: Batch,
    inference_batch: Batch,
    method_name: str,
    warmup: int = 2,
    repeats: int = 5,
) -> LatencyReport:
    """Time training steps and inference passes of ``model``."""
    trainer = Trainer(model)
    for _ in range(warmup):
        trainer.train_step(train_batch)
        model.predict_proba(inference_batch.categorical, inference_batch.numerical)

    train_times = []
    for _ in range(repeats):
        start = time.perf_counter()
        trainer.train_step(train_batch)
        train_times.append(time.perf_counter() - start)

    inference_times = []
    for _ in range(repeats):
        start = time.perf_counter()
        model.predict_proba(inference_batch.categorical, inference_batch.numerical)
        inference_times.append(time.perf_counter() - start)

    plan_stats = trainer.embedding_plan_stats()
    train_latency = float(np.median(train_times))
    inference_latency = float(np.median(inference_times))
    return LatencyReport(
        method=method_name,
        train_latency_ms=train_latency * 1e3,
        inference_latency_ms=inference_latency * 1e3,
        train_throughput=len(train_batch) / train_latency,
        inference_throughput=len(inference_batch) / inference_latency,
        plan_reuse_rate=plan_stats["reuse_rate"],
    )


def measure_sketch_throughput(sketch, keys: np.ndarray, scores: np.ndarray, repeats: int = 3) -> dict[str, float]:
    """Insert/query throughput of a sketch in operations per second (Fig 18b)."""
    insert_times = []
    query_times = []
    for _ in range(repeats):
        start = time.perf_counter()
        sketch.insert(keys, scores)
        insert_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        sketch.query(keys)
        query_times.append(time.perf_counter() - start)
    n = keys.size
    return {
        "insert_ops_per_s": n / float(np.median(insert_times)),
        "query_ops_per_s": n / float(np.median(query_times)),
    }
