"""Tests for repro.utils.hashing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.hashing import hash_to_range, mix64


class TestMix64:
    def test_deterministic(self):
        values = np.arange(100)
        assert np.array_equal(mix64(values, seed=3), mix64(values, seed=3))

    def test_seed_changes_output(self):
        values = np.arange(100)
        assert not np.array_equal(mix64(values, seed=1), mix64(values, seed=2))

    def test_scalar_input(self):
        out = mix64(42, seed=0)
        assert out.shape == ()
        assert out.dtype == np.uint64

    def test_different_inputs_differ(self):
        hashed = mix64(np.arange(10_000))
        assert np.unique(hashed).size == 10_000

    def test_negative_inputs_accepted(self):
        out = mix64(np.asarray([-1, -2, -3], dtype=np.int64))
        assert out.shape == (3,)


class TestHashToRange:
    def test_range_bounds(self):
        out = hash_to_range(np.arange(10_000), size=97)
        assert out.min() >= 0
        assert out.max() < 97

    def test_uniformity(self):
        out = hash_to_range(np.arange(100_000), size=10)
        counts = np.bincount(out, minlength=10)
        # Each bucket should get roughly 10% of keys.
        assert np.all(np.abs(counts / 100_000 - 0.1) < 0.01)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            hash_to_range(np.arange(3), size=0)

    def test_preserves_shape(self):
        out = hash_to_range(np.arange(12).reshape(3, 4), size=7)
        assert out.shape == (3, 4)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), size=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_range_property(self, seed, size):
        out = hash_to_range(np.arange(64), size=size, seed=seed)
        assert out.min() >= 0 and out.max() < size
