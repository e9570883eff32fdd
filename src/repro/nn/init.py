"""Weight initializers.

Every initializer accepts a ``dtype``; ``None`` keeps the RNG's native
float64.  Values are always *drawn* in float64 and then rounded to ``dtype``,
so one seed yields the same initialization at every precision up to that
rounding.  Embedding layers pass their table dtype (float32 by default) and
dense layers their compute dtype (float32 whenever the tables are float16 or
float32, see ``repro.nn.tensor``).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, make_rng

DTypeLike = np.dtype | str | None


def _cast(values: np.ndarray, dtype: DTypeLike) -> np.ndarray:
    if dtype is None or values.dtype == np.dtype(dtype):
        return values
    return values.astype(dtype)


def xavier_uniform(shape: tuple[int, ...], rng: SeedLike = None, dtype: DTypeLike = None) -> np.ndarray:
    """Glorot/Xavier uniform initialization for dense layers."""
    generator = make_rng(rng)
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return _cast(generator.uniform(-limit, limit, size=shape), dtype)


def kaiming_uniform(shape: tuple[int, ...], rng: SeedLike = None, dtype: DTypeLike = None) -> np.ndarray:
    """He/Kaiming uniform initialization suited to ReLU networks."""
    generator = make_rng(rng)
    fan_in, _ = _fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return _cast(generator.uniform(-limit, limit, size=shape), dtype)


def embedding_uniform(shape: tuple[int, ...], rng: SeedLike = None, dtype: DTypeLike = None) -> np.ndarray:
    """DLRM-style embedding initialization: uniform in ±1/sqrt(num_rows).

    This matches the reference DLRM implementation, which scales the range by
    the table cardinality so that the expected embedding norm is independent
    of the number of rows — important when comparing compressed tables with
    very different row counts.
    """
    generator = make_rng(rng)
    num_rows = max(shape[0], 1)
    limit = 1.0 / np.sqrt(num_rows)
    return _cast(generator.uniform(-limit, limit, size=shape), dtype)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fan-in/fan-out of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    return shape[0], shape[1]
