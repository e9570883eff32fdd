"""Deterministic 64-bit hashing utilities.

Every hash-based structure in this library (hash embeddings, the Q-R trick,
HotSketch bucket placement, multi-level hash tables) needs cheap, vectorized,
*deterministic* hash functions over integer feature identifiers.  We use the
SplitMix64 finalizer, which is a well-studied bijective mixer with excellent
avalanche behaviour, parameterized by a per-function seed so that independent
hash functions can be drawn from a family.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# SplitMix64 constants.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT30, _SHIFT27, _SHIFT31 = np.uint64(30), np.uint64(27), np.uint64(31)


def mix64(values: np.ndarray | int, seed: int = 0) -> np.ndarray:
    """Apply the SplitMix64 finalizer to ``values``.

    Parameters
    ----------
    values:
        Integer scalar or array of any integer dtype.  Negative values are
        reinterpreted as unsigned 64-bit integers.
    seed:
        Seed selecting a member of the hash family.

    Returns
    -------
    ``numpy.ndarray`` of dtype ``uint64`` with the same shape as ``values``.
    """
    # In-place uint64 array arithmetic wraps modulo 2**64 on its own; the
    # seed offset is folded in Python integers so no numpy scalar overflows.
    x = np.asarray(values).astype(np.uint64, copy=True)
    x += np.uint64(((int(seed) + 1) * _GAMMA) & _MASK64)
    x ^= x >> _SHIFT30
    x *= _MIX1
    x ^= x >> _SHIFT27
    x *= _MIX2
    x ^= x >> _SHIFT31
    return x[()]  # a scalar for scalar input, the array itself otherwise


def hash_to_range(values: np.ndarray | int, size: int, seed: int = 0) -> np.ndarray:
    """Hash ``values`` uniformly into ``[0, size)`` as ``int64``."""
    if size <= 0:
        raise ValueError(f"hash range must be positive, got {size}")
    return (mix64(values, seed) % np.uint64(size)).astype(np.int64)


def hash_to_bucket(values: np.ndarray | int, num_buckets: int, seed: int = 0) -> np.ndarray:
    """Alias of :func:`hash_to_range` with sketch-oriented naming."""
    return hash_to_range(values, num_buckets, seed)
