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
    #: Per-request serving percentiles measured through the snapshot-backed
    #: micro-batching engine (NaN when serving was not measured).
    serve_p50_ms: float = float("nan")
    serve_p95_ms: float = float("nan")
    serve_p99_ms: float = float("nan")
    #: Serve-while-train: probe-request percentiles measured through the
    #: OnlinePipeline while training keeps publishing snapshots, plus the
    #: snapshot publish latency and the worst staleness (in steps) observed
    #: against the pipeline cadence (NaN/0 when not measured).
    swt_p50_ms: float = float("nan")
    swt_p95_ms: float = float("nan")
    publish_p50_ms: float = float("nan")
    staleness_steps: int = 0

    def as_row(self) -> dict[str, float | str]:
        return {
            "method": self.method,
            "train_latency_ms": round(self.train_latency_ms, 3),
            "inference_latency_ms": round(self.inference_latency_ms, 3),
            "train_throughput": round(self.train_throughput, 1),
            "inference_throughput": round(self.inference_throughput, 1),
            "plan_reuse_rate": round(self.plan_reuse_rate, 3),
            "serve_p50_ms": round(self.serve_p50_ms, 3),
            "serve_p95_ms": round(self.serve_p95_ms, 3),
            "serve_p99_ms": round(self.serve_p99_ms, 3),
            "swt_p50_ms": round(self.swt_p50_ms, 3),
            "swt_p95_ms": round(self.swt_p95_ms, 3),
            "publish_p50_ms": round(self.publish_p50_ms, 3),
            "staleness_steps": self.staleness_steps,
        }


def measure_serving_latency(
    model: RecommendationModel, batch: Batch, micro_batch: int = 64
) -> dict[str, float | int]:
    """Replay ``batch`` row-by-row through the snapshot serving engine.

    Each row is one request; the engine coalesces up to ``micro_batch`` rows
    per forward pass over a copy-on-write store snapshot.  Returns the
    engine's latency summary (p50/p95/p99 in milliseconds).
    """
    from repro.serving.engine import ServingEngine

    engine = ServingEngine(model, max_batch_size=micro_batch)
    has_numerical = batch.numerical.shape[1] > 0
    for row in range(len(batch)):
        engine.submit(batch.categorical[row], batch.numerical[row] if has_numerical else None)
    engine.flush()
    return engine.stats()


def measure_serve_while_train(
    model: RecommendationModel,
    train_batch: Batch,
    probe_batch: Batch,
    trainer: Trainer | None = None,
    steps: int = 12,
    publish_every: int = 4,
    probe_every: int = 2,
    micro_batch: int = 64,
) -> dict[str, float | int]:
    """Probe serving latency while the model trains and publishes snapshots.

    Runs an :class:`~repro.runtime.pipeline.OnlinePipeline` that re-feeds
    ``train_batch`` for ``steps`` training steps, publishing a copy-on-write
    snapshot every ``publish_every`` steps and sending a probe request from
    ``probe_batch`` every ``probe_every`` steps.  Returns the probe latency
    percentiles plus publish latency and the maximum snapshot staleness
    observed (which the pipeline bounds by ``publish_every``).
    """
    from repro.runtime.pipeline import OnlinePipeline, PipelineConfig

    pipeline = OnlinePipeline(
        model,
        config=PipelineConfig(
            publish_every_steps=publish_every,
            probe_every_steps=probe_every,
            serving_micro_batch=micro_batch,
            max_steps=steps,
        ),
        trainer=trainer,
    )
    report = pipeline.run(iter([train_batch] * steps), probe_batch=probe_batch)
    probe = report.probe_stats or {}
    return {
        "swt_p50_ms": float(probe.get("p50_ms", float("nan"))),
        "swt_p95_ms": float(probe.get("p95_ms", float("nan"))),
        "publish_p50_ms": report.publish_percentile_ms(50.0),
        "staleness_steps": report.max_staleness_steps,
        "cadence_steps": report.cadence_steps,
        "staleness_within_cadence": report.staleness_within_cadence,
    }


def measure_latency(
    model: RecommendationModel,
    train_batch: Batch,
    inference_batch: Batch,
    method_name: str,
    warmup: int = 2,
    repeats: int = 5,
    serving_micro_batch: int | None = 64,
    serve_while_train_steps: int = 12,
) -> LatencyReport:
    """Time training steps, inference passes and (optionally) serving.

    ``serving_micro_batch`` enables the per-request serving measurement
    through the snapshot engine (pass ``None`` to skip it) and, with it, the
    serve-while-train measurement through the online pipeline
    (``serve_while_train_steps=0`` skips just that part).
    """
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

    # Read the plan-cache stats before the serving replay: serving lookups
    # run through the same (copy-on-write-shared) shard objects and would
    # otherwise dilute the training-step reuse rate this column reports.
    plan_stats = trainer.embedding_plan_stats()

    serve_stats: dict[str, float | int] = {}
    swt_stats: dict[str, float | int] = {}
    if serving_micro_batch is not None:
        serve_stats = measure_serving_latency(model, inference_batch, serving_micro_batch)
        if serve_while_train_steps:
            swt_stats = measure_serve_while_train(
                model,
                train_batch,
                inference_batch,
                trainer=trainer,
                steps=serve_while_train_steps,
                micro_batch=serving_micro_batch,
            )

    train_latency = float(np.median(train_times))
    inference_latency = float(np.median(inference_times))
    return LatencyReport(
        method=method_name,
        train_latency_ms=train_latency * 1e3,
        inference_latency_ms=inference_latency * 1e3,
        train_throughput=len(train_batch) / train_latency,
        inference_throughput=len(inference_batch) / inference_latency,
        plan_reuse_rate=plan_stats["reuse_rate"],
        serve_p50_ms=float(serve_stats.get("p50_ms", float("nan"))),
        serve_p95_ms=float(serve_stats.get("p95_ms", float("nan"))),
        serve_p99_ms=float(serve_stats.get("p99_ms", float("nan"))),
        swt_p50_ms=float(swt_stats.get("swt_p50_ms", float("nan"))),
        swt_p95_ms=float(swt_stats.get("swt_p95_ms", float("nan"))),
        publish_p50_ms=float(swt_stats.get("publish_p50_ms", float("nan"))),
        staleness_steps=int(swt_stats.get("staleness_steps", 0)),
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
