"""The online pipeline.

:mod:`repro.runtime.pipeline` holds :class:`OnlinePipeline`, the train→serve
loop that turns the store + serving stack into a continuously running
system: it publishes copy-on-write store snapshots to a live
:class:`~repro.serving.engine.ServingEngine` on a configurable cadence.
"""

from repro.runtime.pipeline import OnlinePipeline, PipelineConfig, PipelineReport

__all__ = ["OnlinePipeline", "PipelineConfig", "PipelineReport"]
