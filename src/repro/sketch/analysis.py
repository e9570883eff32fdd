"""Analytical results from the paper's Section 3.5.1.

These functions evaluate the probability bounds of Theorems 3.1 and 3.3 and
the optimal slots-per-bucket rule of Corollary 3.5 so the numerical analysis
of Figure 7 can be regenerated and the HotSketch configuration choices can be
validated against theory in tests and benchmarks.
"""

from __future__ import annotations

import numpy as np

#: The η values Theorem 3.3's supremum is maximized over.
ETA_GRID = np.logspace(-4, 2, 2000)


def retention_probability_uniform(gamma: float, num_buckets: int, slots_per_bucket: int) -> float:
    """Theorem 3.1: lower bound on holding a feature with score ≥ γ‖a‖₁.

    No distribution assumption; the bound is ``1 - (1-γ) / ((c-1) γ w)`` and is
    clipped to [0, 1].
    """
    _validate(gamma, num_buckets, slots_per_bucket)
    bound = 1.0 - (1.0 - gamma) / ((slots_per_bucket - 1) * gamma * num_buckets)
    return float(np.clip(bound, 0.0, 1.0))


def retention_probability_zipf(
    gamma: float,
    zipf_exponent: float,
    num_buckets: int,
    slots_per_bucket: int,
) -> float:
    """Theorem 3.3: lower bound under a Zipf(z) score distribution.

    The theorem states ``Pr > sup_{η>0} 3^{-η} (1 - η / ((c-1) γ (η w)^z))``;
    the supremum is approximated by maximizing over :data:`ETA_GRID`.
    """
    _validate(gamma, num_buckets, slots_per_bucket)
    if zipf_exponent <= 1.0:
        raise ValueError(f"the Zipf bound requires z > 1, got {zipf_exponent}")
    eta = ETA_GRID
    values = 3.0**-eta * (
        1.0
        - eta / ((slots_per_bucket - 1) * gamma * (eta * num_buckets) ** zipf_exponent)
    )
    return float(np.clip(values.max(), 0.0, 1.0))


def retention_probability_grid(
    gammas: np.ndarray,
    zipf_exponents: np.ndarray,
    num_buckets: int,
    slots_per_bucket: int,
) -> np.ndarray:
    """Evaluate Theorem 3.3 over a (z, γ) grid — the data behind Figure 7.

    Returns an array of shape ``(len(zipf_exponents), len(gammas))`` matching
    the figure's orientation (skewness on the y-axis, hotness on the x-axis).
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    zipf_exponents = np.asarray(zipf_exponents, dtype=np.float64)
    grid = np.zeros((zipf_exponents.size, gammas.size))
    for i, z in enumerate(zipf_exponents):
        for j, gamma in enumerate(gammas):
            grid[i, j] = retention_probability_zipf(gamma, z, num_buckets, slots_per_bucket)
    return grid


def optimal_slots_per_bucket(zipf_exponent: float) -> float:
    """Corollary 3.5: the recommended ``c* = 1 + 1/(z-1)`` for Zipf(z) data."""
    if zipf_exponent <= 1.0:
        raise ValueError(f"the optimal-c rule requires z > 1, got {zipf_exponent}")
    return 1.0 + 1.0 / (zipf_exponent - 1.0)


def expected_bucket_noise(
    total_score: float, num_hot: int, zipf_exponent: float, num_buckets: int
) -> float:
    """Lemma 3.2: expected non-hot score mass landing in one bucket.

    ``E[f̂] ≤ ‖a‖₁ · k'^(1-z) / w`` for ``z > 1``.
    """
    if zipf_exponent <= 1.0:
        raise ValueError(f"the bucket-noise bound requires z > 1, got {zipf_exponent}")
    if num_hot <= 0 or num_buckets <= 0:
        raise ValueError("num_hot and num_buckets must be positive")
    return float(total_score * num_hot ** (1.0 - zipf_exponent) / num_buckets)


def _validate(gamma: float, num_buckets: int, slots_per_bucket: int) -> None:
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if num_buckets <= 0:
        raise ValueError(f"num_buckets must be positive, got {num_buckets}")
    if slots_per_bucket <= 1:
        raise ValueError(f"slots_per_bucket must exceed 1 for the bounds, got {slots_per_bucket}")
