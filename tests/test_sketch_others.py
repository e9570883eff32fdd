"""Tests for the baseline sketches: SpaceSaving and Count-Min."""

import numpy as np
import pytest

from repro.sketch.cm_sketch import CountMinSketch
from repro.sketch.spacesaving import SpaceSaving
from repro.utils.zipf import ZipfDistribution


class TestSpaceSaving:
    def test_exact_when_under_capacity(self):
        ss = SpaceSaving(capacity=10)
        ss.insert(np.asarray([1, 2, 1, 3, 1]))
        assert ss._scores == {1: 3.0, 2: 1.0, 3: 1.0}
        assert ss.top_k(1).tolist() == [1]

    def test_capacity_respected(self):
        ss = SpaceSaving(capacity=5)
        ss.insert(np.arange(100))
        assert len(ss._scores) == 5

    def test_replacement_inherits_minimum(self):
        ss = SpaceSaving(capacity=2)
        ss.insert(np.asarray([1, 1, 2]))  # counts: 1->2, 2->1
        ss.insert(np.asarray([3]))  # replaces 2, inherits its count
        assert ss._scores == {1: 2.0, 3: 2.0}

    def test_top_k_on_zipf_stream(self):
        zipf = ZipfDistribution(5000, 1.5)
        stream = zipf.sample(100_000, rng=0)
        ss = SpaceSaving(capacity=200)
        ss.insert(stream)
        counts = np.bincount(stream, minlength=5000)
        true_top = set(np.argsort(counts)[::-1][:50].tolist())
        reported = set(ss.top_k(50).tolist())
        assert len(true_top & reported) / 50 > 0.9

    def test_weighted_scores(self):
        ss = SpaceSaving(capacity=4)
        ss.insert(np.asarray([7, 7]), np.asarray([1.5, 2.5]))
        assert ss._scores == {7: pytest.approx(4.0)}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SpaceSaving(capacity=0)

    def test_memory_accounting(self):
        assert SpaceSaving(capacity=100).memory_floats() == 400


class TestCountMinSketch:
    def test_never_underestimates(self):
        cms = CountMinSketch(width=64, depth=3, seed=0)
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 500, size=20_000)
        cms.insert(keys)
        true_counts = np.bincount(keys, minlength=500)
        estimates = cms.query(np.arange(500))
        assert np.all(estimates >= true_counts - 1e-9)

    def test_exact_for_isolated_key(self):
        cms = CountMinSketch(width=1024, depth=3)
        cms.insert(np.asarray([5, 5, 5]))
        assert cms.query(np.asarray([5]))[0] == pytest.approx(3.0)

    def test_weighted_insert(self):
        cms = CountMinSketch(width=128, depth=3)
        cms.insert(np.asarray([3]), np.asarray([2.5]))
        assert cms.query(np.asarray([3]))[0] == pytest.approx(2.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=0)
        with pytest.raises(ValueError):
            CountMinSketch(width=10, depth=0)

    def test_memory(self):
        assert CountMinSketch(width=100, depth=5).memory_floats() == 500

