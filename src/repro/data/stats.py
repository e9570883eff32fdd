"""Distribution statistics: KL divergence heatmaps and frequency analyses."""

from __future__ import annotations

import numpy as np

from repro.errors import DataError

#: Added to every count before normalizing, so an empty bin has no infinite log.
SMOOTHING = 1e-9


def kl_divergence(p_counts: np.ndarray, q_counts: np.ndarray) -> float:
    """KL(P ‖ Q) between two count histograms with additive :data:`SMOOTHING`.

    Matches the asymmetric measure used for the paper's Figure 2: the inputs
    are raw per-day feature frequency histograms, normalized here.
    """
    p_counts = np.asarray(p_counts, dtype=np.float64)
    q_counts = np.asarray(q_counts, dtype=np.float64)
    if p_counts.shape != q_counts.shape:
        raise DataError(f"histogram shapes differ: {p_counts.shape} vs {q_counts.shape}")
    p = p_counts + SMOOTHING
    q = q_counts + SMOOTHING
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(p * np.log(p / q)))


def kl_divergence_matrix(day_histograms: np.ndarray) -> np.ndarray:
    """Pairwise KL(day_i ‖ day_j) matrix — the data behind Figure 2."""
    day_histograms = np.asarray(day_histograms, dtype=np.float64)
    if day_histograms.ndim != 2:
        raise DataError("day_histograms must be 2-D (days, features)")
    days = day_histograms.shape[0]
    matrix = np.zeros((days, days))
    for i in range(days):
        for j in range(days):
            if i != j:
                matrix[i, j] = kl_divergence(day_histograms[i], day_histograms[j])
    return matrix


def frequency_skew_summary(counts: np.ndarray, top_fractions: tuple[float, ...] = (0.001, 0.01, 0.1)) -> dict[str, float]:
    """How concentrated the frequency mass is in the most popular features."""
    counts = np.sort(np.asarray(counts, dtype=np.float64))[::-1]
    total = counts.sum()
    if total <= 0:
        raise DataError("counts must contain positive mass")
    summary = {}
    for fraction in top_fractions:
        k = max(int(len(counts) * fraction), 1)
        summary[f"top_{fraction:g}"] = float(counts[:k].sum() / total)
    return summary
