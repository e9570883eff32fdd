"""Seeded random-number-generator helpers.

All stochastic components accept either an integer seed or an existing
``numpy.random.Generator``; these helpers normalize that convention so the
whole library is reproducible end to end.
"""

from __future__ import annotations

import numpy as np

SeedLike = int | np.random.Generator | None


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from a seed, generator, or ``None``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
