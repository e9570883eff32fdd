"""The numpy primitives the embedding train step is built from.

Index ops for the plan builder (plan construction is index bookkeeping
dominated by one sort, which :func:`stable_sort` makes cheap with the
composite-key trick below) and the three update primitives every
table-backed embedding applies its gradients through: :func:`segment_sum`,
:func:`scatter_apply` and :func:`sketch_insert`.  Each update primitive is a
single vectorized pass whose result defines bit-exactness for the step
(``np.add.reduceat`` for the segment sum, fancy-index arithmetic for the
scatters).
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


def segment_sum(values: np.ndarray, perm: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum ``values[perm]`` over the runs that begin at ``starts``.

    ``perm`` / ``starts`` are a :class:`~repro.embeddings.plan.ScatterPlan`'s:
    run ``r`` covers ``perm[starts[r]:starts[r + 1]]``.  Returns one row per
    run, ``(0, ...)``-shaped for no runs.
    """
    if starts.shape[0] == 0:
        return np.zeros((0,) + values.shape[1:], dtype=values.dtype)
    # np.take is ~2x faster than fancy indexing for the 2-D row gather
    # and produces the identical array, so bit-exactness is unaffected.
    return np.add.reduceat(np.take(values, perm, axis=0), starts, axis=0)


def scatter_apply(
    table: np.ndarray,
    rows: np.ndarray,
    summed: np.ndarray,
    lr: float,
    accumulator: np.ndarray | None = None,
    eps: float = 0.0,
) -> None:
    """``table[rows] -= lr * summed`` in place over unique ``rows``.

    With an ``accumulator`` (one scalar per table row) this is the row-wise
    Adagrad step: the accumulator gains the mean squared gradient of each
    row and the step is scaled by ``lr / (sqrt(accumulator) + eps)``.
    """
    if rows.shape[0] == 0:
        return
    if accumulator is None:
        table[rows] -= lr * summed
        return
    accumulator[rows] += (summed**2).mean(axis=1)
    scale = lr / (np.sqrt(accumulator[rows]) + eps)
    table[rows] -= scale[:, None] * summed


def sketch_insert(scores: np.ndarray, slots: np.ndarray, add: np.ndarray) -> None:
    """``scores[slots] += add`` in place over unique flat ``slots``."""
    scores[slots] += add
