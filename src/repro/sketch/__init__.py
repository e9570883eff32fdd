"""Streaming sketches: HotSketch (the paper's contribution) plus references."""

from repro.sketch.analysis import (
    expected_bucket_noise,
    optimal_slots_per_bucket,
    retention_probability_grid,
    retention_probability_uniform,
    retention_probability_zipf,
)
from repro.sketch.base import Sketch
from repro.sketch.cm_sketch import CountMinSketch
from repro.sketch.hotsketch import EMPTY_KEY, NO_PAYLOAD, EvictionBatch, HotSketch
from repro.sketch.spacesaving import SpaceSaving

__all__ = [
    "Sketch",
    "HotSketch",
    "EvictionBatch",
    "EMPTY_KEY",
    "NO_PAYLOAD",
    "SpaceSaving",
    "CountMinSketch",
    "retention_probability_uniform",
    "retention_probability_zipf",
    "retention_probability_grid",
    "optimal_slots_per_bucket",
    "expected_bucket_noise",
]
