"""Numpy primitives of the embedding train step (see :mod:`repro.kernels.ops`)."""

from repro.kernels.ops import (
    SegmentSum,
    scatter_apply,
    segment_boundaries,
    sketch_insert,
    stable_order,
)

__all__ = [
    "SegmentSum",
    "scatter_apply",
    "segment_boundaries",
    "sketch_insert",
    "stable_order",
]
