"""Numpy primitives of the embedding train step (see :mod:`repro.kernels.ops`)."""

from repro.kernels.ops import (
    scatter_apply,
    segment_boundaries,
    segment_sum,
    sketch_insert,
    stable_order,
)

__all__ = [
    "scatter_apply",
    "segment_boundaries",
    "segment_sum",
    "sketch_insert",
    "stable_order",
]
