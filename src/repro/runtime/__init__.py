"""Shard-parallel runtime: executors and the online pipeline.

``repro.runtime`` holds the pieces that turn the store + serving stack into
a continuously running system:

* :mod:`repro.runtime.executor` — the :class:`ShardExecutor` interface and
  its serial implementation, used by
  :class:`~repro.store.sharded.ShardedEmbeddingStore` to fan out per-shard
  work;
* :mod:`repro.runtime.process` — :class:`ProcessShardExecutor`, which moves
  each shard into a pinned worker process with its tables in shared memory
  (:mod:`repro.runtime.shm`) for real CPU parallelism;
* :mod:`repro.runtime.pipeline` — :class:`OnlinePipeline`, the train→serve
  loop that publishes copy-on-write store snapshots to a live
  :class:`~repro.serving.engine.ServingEngine` on a configurable cadence.

The pipeline names are loaded lazily (PEP 562) because the pipeline pulls in
the training/serving stack, which itself imports the store package.
"""

from repro.runtime.executor import (
    EXECUTOR_KINDS,
    ExecutorStats,
    SerialShardExecutor,
    ShardExecutor,
    create_executor,
)

__all__ = [
    "ShardExecutor",
    "SerialShardExecutor",
    "ProcessShardExecutor",
    "ShardHandle",
    "ExecutorStats",
    "create_executor",
    "EXECUTOR_KINDS",
    "OnlinePipeline",
    "PipelineConfig",
    "PipelineReport",
]

_PIPELINE_NAMES = ("OnlinePipeline", "PipelineConfig", "PipelineReport")
_PROCESS_NAMES = ("ProcessShardExecutor", "ShardHandle")


def __getattr__(name):
    if name in _PIPELINE_NAMES:
        from repro.runtime import pipeline

        return getattr(pipeline, name)
    if name in _PROCESS_NAMES:
        from repro.runtime import process

        return getattr(process, name)
    raise AttributeError(f"module 'repro.runtime' has no attribute '{name}'")
