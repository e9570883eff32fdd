"""Index ops shared by every kernel backend and the plan builder.

These are the sorting/segmentation primitives the fused hot path is built
from.  They stay pure numpy regardless of the selected kernel backend: plan
construction is index bookkeeping, and its cost is dominated by one sort —
which :func:`stable_sort` makes cheap with the composite-key trick below.
"""

from __future__ import annotations

import numpy as np


def stable_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, sorted_keys)``: ``keys`` ascending, ties kept in input order.

    A stable argsort (timsort/mergesort) on int64 keys is ~3.5x slower than
    quicksort on the same data, but quicksort is unstable.  Packing the key
    and its position into one composite int64 — ``(key << shift) | position``
    with ``shift = ceil(log2(n))`` — makes every composite unique, so an
    unstable sort of the composites *is* a stable sort of the keys, at
    quicksort speed; and because the composite carries both halves, one
    in-place value sort yields the permutation (low bits) and the sorted
    keys (high bits) without an argsort or a gather.  Falls back to
    ``kind="stable"`` when the composite would overflow int64 (keys wider
    than ``62 - shift`` bits) or a key is negative.
    """
    n = keys.shape[0]
    if n <= 1:
        return np.arange(n, dtype=np.int64), keys.astype(np.int64)
    shift = int(n - 1).bit_length()
    if int(keys.min()) < 0 or int(keys.max()).bit_length() + shift > 62:
        order = np.argsort(keys, kind="stable").astype(np.int64, copy=False)
        return order, keys[order]
    composite = keys.astype(np.int64, copy=False) << shift
    composite |= np.arange(n, dtype=np.int64)
    composite.sort()
    return composite & ((1 << shift) - 1), composite >> shift


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Permutation sorting ``keys`` ascending, ties kept in input order."""
    return stable_sort(keys)[0]


def segment_boundaries(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unique_keys, starts)`` of the runs in an already-sorted key array.

    ``starts[i]`` is the first position of run ``i``; ``unique_keys[i]`` its
    key.  Both are empty for an empty input.
    """
    n = sorted_keys.shape[0]
    if n == 0:
        return sorted_keys[:0], np.empty(0, dtype=np.int64)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    return sorted_keys[starts], starts


def run_lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """Length of each run given its first position and the total length ``n``.

    Slice subtraction; ``np.diff(starts, append=n)`` computes the same array
    but goes through numpy's Python-level ``broadcast_to`` wrapper, which
    costs more than the arithmetic at the sizes the plan builder sees.
    """
    lengths = np.empty_like(starts)
    if starts.shape[0]:
        np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
        lengths[-1] = n - starts[-1]
    return lengths
