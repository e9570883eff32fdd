"""Evaluation metrics: AUC, log loss, and recall for top-k tracking."""

from __future__ import annotations

import numpy as np

from repro.errors import DataError

#: How far :func:`log_loss` clips a probability away from 0 and 1.
LOG_LOSS_EPS = 1e-12


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-statistic (Mann-Whitney) formula.

    Ties in ``scores`` receive average ranks, matching
    ``sklearn.metrics.roc_auc_score``.
    """
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if labels.shape != scores.shape:
        raise DataError(f"labels and scores must match in length: {labels.shape} vs {scores.shape}")
    positives = labels > 0.5
    num_pos = int(positives.sum())
    num_neg = labels.size - num_pos
    if num_pos == 0 or num_neg == 0:
        raise DataError("AUC is undefined when only one class is present")
    ranks = _average_ranks(scores)
    rank_sum_pos = ranks[positives].sum()
    auc = (rank_sum_pos - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg)
    return float(auc)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their average rank: ``k + 1`` at
    position ``k`` of the stable sort order, ``(first + last) / 2 + 1`` over
    each run of equal values there."""
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    # repeats[k]: sorted position k equals position k - 1 (padded both ends).
    repeats = np.concatenate(([False], sorted_values[1:] == sorted_values[:-1], [False]))
    del sorted_values  # live: the order and two rank arrays, as before
    sorted_ranks = np.arange(1.0, values.size + 1.0)
    edges = np.flatnonzero(repeats[1:] != repeats[:-1])
    first, last = edges[0::2], edges[1::2]
    sorted_ranks[repeats[:-1] | repeats[1:]] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    ranks = np.empty_like(sorted_ranks)
    ranks[order] = sorted_ranks
    return ranks


def log_loss(labels: np.ndarray, probabilities: np.ndarray) -> float:
    """Mean binary cross entropy between labels and predicted probabilities
    (clipped :data:`LOG_LOSS_EPS` away from 0 and 1)."""
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    probabilities = np.clip(
        np.asarray(probabilities, dtype=np.float64).reshape(-1), LOG_LOSS_EPS, 1 - LOG_LOSS_EPS
    )
    if labels.shape != probabilities.shape:
        raise DataError("labels and probabilities must have the same length")
    return float(-np.mean(labels * np.log(probabilities) + (1 - labels) * np.log(1 - probabilities)))


def recall_at_k(true_items: np.ndarray, reported_items: np.ndarray) -> float:
    """Fraction of ``true_items`` present in ``reported_items``.

    Used for the HotSketch top-k tracking experiments (Figure 18c/d).
    """
    true_set = np.unique(np.asarray(true_items))
    if true_set.size == 0:
        raise DataError("true_items must be non-empty")
    reported_set = set(np.asarray(reported_items).reshape(-1).tolist())
    hits = sum(1 for item in true_set.tolist() if item in reported_set)
    return hits / true_set.size
