"""Tests for AUC, log loss and recall metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataError
from repro.training.metrics import _average_ranks, log_loss, recall_at_k, roc_auc


def loop_average_ranks(values):
    """The per-element oracle: walk the stable sort, one tie run at a time."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def loop_roc_auc(labels, scores):
    """Mann-Whitney AUC over the oracle's ranks, summed as roc_auc sums them."""
    positives = labels > 0.5
    num_pos = int(positives.sum())
    num_neg = labels.size - num_pos
    ranks = loop_average_ranks(scores)
    return float((ranks[positives].sum() - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg))


class TestRocAuc:
    def test_perfect_separation(self):
        labels = np.asarray([0, 0, 1, 1])
        scores = np.asarray([0.1, 0.2, 0.8, 0.9])
        assert roc_auc(labels, scores) == pytest.approx(1.0)

    def test_perfectly_wrong(self):
        labels = np.asarray([0, 0, 1, 1])
        scores = np.asarray([0.9, 0.8, 0.2, 0.1])
        assert roc_auc(labels, scores) == pytest.approx(0.0)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=20_000)
        scores = rng.random(20_000)
        assert abs(roc_auc(labels, scores) - 0.5) < 0.02

    def test_ties_get_average_rank(self):
        labels = np.asarray([0, 1, 0, 1])
        scores = np.asarray([0.5, 0.5, 0.5, 0.5])
        assert roc_auc(labels, scores) == pytest.approx(0.5)

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=200)
        scores = rng.random(200)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        pairwise = np.mean([(p > n) + 0.5 * (p == n) for p in pos for n in neg])
        assert roc_auc(labels, scores) == pytest.approx(pairwise)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, float("nan")]), min_size=1, max_size=300),
        st.integers(0, 2**32 - 1),
    )
    def test_ranks_and_auc_match_the_loop_under_heavy_ties(self, values, seed):
        scores = np.asarray(values)
        assert np.array_equal(_average_ranks(scores), loop_average_ranks(scores))
        labels = np.random.default_rng(seed).integers(0, 2, size=scores.size).astype(np.float64)
        labels[0], labels[-1] = 0.0, 1.0
        if scores.size > 1:  # bit for bit, NaN scores included
            assert np.array_equal(roc_auc(labels, scores), loop_roc_auc(labels, scores), equal_nan=True)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_auc(np.ones(5), np.random.random(5))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            roc_auc(np.ones(5), np.random.random(4))


class TestLogLoss:
    def test_perfect_predictions(self):
        labels = np.asarray([1.0, 0.0])
        assert log_loss(labels, np.asarray([1.0, 0.0])) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_predictions(self):
        labels = np.asarray([1.0, 0.0, 1.0, 0.0])
        assert log_loss(labels, np.full(4, 0.5)) == pytest.approx(np.log(2))

    def test_clipping_avoids_infinity(self):
        loss = log_loss(np.asarray([1.0]), np.asarray([0.0]))
        assert np.isfinite(loss)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            log_loss(np.ones(3), np.full(2, 0.5))


class TestRecallAtK:
    def test_full_recall(self):
        assert recall_at_k(np.asarray([1, 2, 3]), np.asarray([3, 2, 1, 9])) == 1.0

    def test_partial_recall(self):
        assert recall_at_k(np.asarray([1, 2, 3, 4]), np.asarray([1, 2])) == 0.5

    def test_zero_recall(self):
        assert recall_at_k(np.asarray([1, 2]), np.asarray([5, 6])) == 0.0

    def test_empty_truth_rejected(self):
        with pytest.raises(DataError):
            recall_at_k(np.asarray([]), np.asarray([1]))
