"""HotSketch, the paper's streaming sketch, and its accuracy analysis."""

from repro.sketch.analysis import (
    expected_bucket_noise,
    optimal_slots_per_bucket,
    retention_probability_grid,
    retention_probability_uniform,
    retention_probability_zipf,
)
from repro.sketch.hotsketch import EMPTY_KEY, NO_PAYLOAD, EvictionBatch, HotSketch

__all__ = [
    "HotSketch",
    "EvictionBatch",
    "EMPTY_KEY",
    "NO_PAYLOAD",
    "retention_probability_uniform",
    "retention_probability_zipf",
    "retention_probability_grid",
    "optimal_slots_per_bucket",
    "expected_bucket_noise",
]
