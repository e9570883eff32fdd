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
    models: dict[str, RecommendationModel],
    train_batch: Batch,
    inference_batch: Batch,
    repeats: int = 5,
) -> list[LatencyReport]:
    """Time training steps and inference passes of every model, interleaved.

    One untimed round warms every model up; each of the ``repeats`` timed
    rounds then takes one train step and one inference pass of every model.
    The rounds alternate direction (forward, backward, forward, …), so a slow
    stretch of the host at the start (a CPU still clocking up after idle)
    that reaches the first model's second timed sample has already covered
    two samples of every model: the first model's median is never the only
    slow one.  One report per model, in ``models`` order, of its medians.
    """
    trainers = {name: Trainer(model) for name, model in models.items()}
    times: dict[str, list[tuple[float, float]]] = {name: [] for name in models}
    for round_index in range(repeats + 1):
        for name in list(trainers)[:: 1 if round_index % 2 else -1]:
            start = time.perf_counter()
            trainers[name].train_step(train_batch)
            trained = time.perf_counter()
            models[name].predict_proba(inference_batch.categorical, inference_batch.numerical)
            if round_index:
                times[name].append((trained - start, time.perf_counter() - trained))

    reports = []
    for name, trainer in trainers.items():
        train_latency, inference_latency = map(float, np.median(times[name], axis=0))
        reports.append(LatencyReport(
            method=name,
            train_latency_ms=train_latency * 1e3,
            inference_latency_ms=inference_latency * 1e3,
            train_throughput=len(train_batch) / train_latency,
            inference_throughput=len(inference_batch) / inference_latency,
            plan_reuse_rate=trainer.embedding_plan_stats()["reuse_rate"],
        ))
    return reports


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
