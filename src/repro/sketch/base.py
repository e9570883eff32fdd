"""Common interface for streaming sketches."""

from __future__ import annotations

import numpy as np

from repro.kernels.ops import SegmentSum, segment_boundaries, stable_order


class Sketch:
    """Base class for frequency / importance sketches over integer keys.

    Sketches take batched insertion of ``(key, score)`` pairs, because the
    training loop feeds them one mini-batch of feature ids at a time, and
    answer batched point queries (all but :class:`~repro.sketch.spacesaving.
    SpaceSaving`, which answers top-k only).
    """

    def insert(self, keys: np.ndarray, scores: np.ndarray | None = None) -> None:
        """Add ``scores`` (default: 1 per key) to the recorded keys."""
        raise NotImplementedError  # pragma: no cover - abstract

    def query(self, keys: np.ndarray) -> np.ndarray:
        """Return the estimated score of each key."""
        raise NotImplementedError  # pragma: no cover - abstract

    def memory_floats(self) -> int:
        """Memory footprint expressed in float32-equivalent parameter slots.

        The paper's §5.1.4 counts auxiliary structures towards the memory
        budget; expressing every structure in the same unit (one float32)
        keeps the compression-ratio accounting comparable across methods.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    @staticmethod
    def _normalize_inputs(
        keys: np.ndarray, scores: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if scores is None:
            scores = np.ones(keys.shape[0], dtype=np.float64)
        else:
            scores = np.asarray(scores, dtype=np.float64).reshape(-1)
            if scores.shape[0] != keys.shape[0]:
                raise ValueError(
                    f"keys and scores must have the same length, got {keys.shape[0]} and {scores.shape[0]}"
                )
        return keys, scores

    @staticmethod
    def aggregate_duplicates(keys: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sum scores of duplicate keys; returns unique keys and their totals.

        Totals are formed by a stable key sort followed by a segment sum
        (:class:`~repro.kernels.ops.SegmentSum`, ``np.add.reduceat``'s
        association), summing each key's scores in input order.
        This is the same aggregation the fused embedding path performs from
        its routing plan, which keeps the two bit-exact with each other.
        """
        if keys.shape[0] == 0:
            return keys, scores
        order = stable_order(keys)
        unique_keys, starts = segment_boundaries(keys[order])
        return unique_keys, SegmentSum(order, starts)(scores)
