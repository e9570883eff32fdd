"""Batch containers and streaming iteration over chronological CTR data."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterator

import numpy as np

from repro.errors import DataError, NonIntegerIdError


def as_id_array(ids) -> np.ndarray:
    """``ids`` as an int64 array; a non-integer dtype is refused, not truncated."""
    ids = np.asarray(ids)
    if ids.dtype == np.int64:
        return ids
    if ids.dtype.kind not in "iu" and ids.size:
        raise NonIntegerIdError(
            f"feature ids must be integers, got dtype {ids.dtype} "
            "(casting would silently truncate, e.g. 1.5 -> 1)"
        )
    return ids.astype(np.int64)


def all_finite(values: np.ndarray) -> bool:
    """Whether ``values`` holds no NaN or inf.

    A finite sum proves it (NaN and inf propagate) without allocating a mask;
    for one row a Python sum of its few values screens at a third of a numpy
    reduction's fixed cost.  A sum that overflowed from finite values (numpy
    warns) takes the exact test.
    """
    screen = sum(values.tolist()) if values.ndim == 1 else values.sum()
    return isfinite(screen) or bool(np.isfinite(values).all())


@dataclass
class Batch:
    """One mini-batch of training or evaluation data.

    ``categorical`` holds *global* feature ids of shape ``(batch, fields)``,
    ``numerical`` holds dense features ``(batch, num_numerical)`` (possibly
    zero columns), ``labels`` holds binary click labels ``(batch,)``, and
    ``day`` records which logical day the samples belong to (used by the
    online-training protocol and the drift experiments).  Ids of a
    non-integer dtype raise :class:`~repro.errors.NonIntegerIdError`, as the
    store does, instead of being truncated; a block given as a scalar or
    ``None`` raises :class:`~repro.errors.DataError`.

    >>> batch = Batch(
    ...     categorical=np.array([[1, 2], [3, 4], [5, 6]]),
    ...     numerical=np.zeros((3, 0)),
    ...     labels=np.array([1.0, 0.0, 1.0]),
    ... )
    >>> len(batch)
    3
    >>> [len(b) for b in iterate_batches(
    ...     batch.categorical, batch.numerical, batch.labels, batch_size=2)]
    [2, 1]
    """

    categorical: np.ndarray
    numerical: np.ndarray
    labels: np.ndarray
    day: int = 0

    def __post_init__(self):
        self.categorical = as_id_array(self.categorical)
        self.numerical = np.asarray(self.numerical, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        for name in ("categorical", "numerical", "labels"):
            if getattr(self, name).ndim == 0:
                raise DataError(
                    f"Batch {name} must hold one entry per row (numerical np.zeros((batch, 0)) "
                    "when there are no dense features), got a scalar or None"
                )
        batch = self.categorical.shape[0]
        if self.numerical.shape[0] != batch or self.labels.shape[0] != batch:
            raise DataError(
                "categorical, numerical and labels must agree on the batch dimension: "
                f"{self.categorical.shape[0]}, {self.numerical.shape[0]}, {self.labels.shape[0]}"
            )

    def __len__(self) -> int:
        return int(self.categorical.shape[0])


def iterate_batches(
    categorical: np.ndarray,
    numerical: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    day: int = 0,
) -> Iterator[Batch]:
    """Slice arrays into consecutive :class:`Batch` objects (the last may be short)."""
    if batch_size <= 0:
        raise DataError(f"batch_size must be positive, got {batch_size}")
    total = categorical.shape[0]
    for start in range(0, total, batch_size):
        end = min(start + batch_size, total)
        yield Batch(
            categorical=categorical[start:end],
            numerical=numerical[start:end],
            labels=labels[start:end],
            day=day,
        )
