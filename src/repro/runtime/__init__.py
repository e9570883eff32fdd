"""Shard fan-out and the online pipeline.

``repro.runtime`` holds the pieces that turn the store + serving stack into
a continuously running system:

* :mod:`repro.runtime.executor` — :class:`SerialShardExecutor`, used by
  :class:`~repro.store.sharded.ShardedEmbeddingStore` and
  :class:`~repro.store.table_group.TableGroupStore` to fan out and time
  per-shard work;
* :mod:`repro.runtime.pipeline` — :class:`OnlinePipeline`, the train→serve
  loop that publishes copy-on-write store snapshots to a live
  :class:`~repro.serving.engine.ServingEngine` on a configurable cadence.

The pipeline names are loaded lazily (PEP 562) because the pipeline pulls in
the training/serving stack, which itself imports the store package.
"""

from repro.runtime.executor import ExecutorStats, SerialShardExecutor

__all__ = [
    "SerialShardExecutor",
    "ExecutorStats",
    "OnlinePipeline",
    "PipelineConfig",
    "PipelineReport",
]

_PIPELINE_NAMES = ("OnlinePipeline", "PipelineConfig", "PipelineReport")


def __getattr__(name):
    if name in _PIPELINE_NAMES:
        from repro.runtime import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module 'repro.runtime' has no attribute '{name}'")
