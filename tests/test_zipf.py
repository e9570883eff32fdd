"""Tests for repro.utils.zipf."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import make_rng
from repro.utils.zipf import ZipfDistribution, fit_zipf_exponent, zipf_probabilities


class FixedUniforms(np.random.Generator):
    """A generator whose ``random(size)`` hands back chosen uniforms."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = np.asarray(uniforms, dtype=np.float64)

    def random(self, size=None):
        assert size == self.uniforms.size
        return self.uniforms


def reference_zipf_sample(dist: ZipfDistribution, size: int, rng=None) -> np.ndarray:
    """``ZipfDistribution.sample`` as it was before the guide table: the oracle."""
    generator = make_rng(rng)
    uniforms = generator.random(size)
    return np.searchsorted(dist._cdf, uniforms, side="right").astype(np.int64)


class TestZipfProbabilities:
    def test_normalized(self):
        probs = zipf_probabilities(1000, 1.1)
        assert probs.shape == (1000,)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_monotone_decreasing(self):
        probs = zipf_probabilities(500, 1.3)
        assert np.all(np.diff(probs) <= 0)

    def test_uniform_when_exponent_zero(self):
        probs = zipf_probabilities(10, 0.0)
        assert np.allclose(probs, 0.1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(ValueError):
            zipf_probabilities(10, -1.0)


class TestZipfDistribution:
    def test_sample_range(self):
        dist = ZipfDistribution(100, 1.2)
        samples = dist.sample(10_000, rng=0)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_sample_matches_probabilities(self):
        dist = ZipfDistribution(50, 1.5)
        samples = dist.sample(200_000, rng=1)
        empirical = np.bincount(samples, minlength=50) / 200_000
        assert np.allclose(empirical, dist.probabilities, atol=0.01)

    def test_determinism_with_seed(self):
        dist = ZipfDistribution(100, 1.1)
        assert np.array_equal(dist.sample(100, rng=7), dist.sample(100, rng=7))

    def test_more_skew_more_head_mass(self):
        flat = ZipfDistribution(1000, 1.05)
        skewed = ZipfDistribution(1000, 2.0)
        assert skewed.probabilities[:10].sum() > flat.probabilities[:10].sum()


class TestGuideTableIsTheBinarySearch:
    """The guide table must return ``searchsorted(cdf, u, side="right")`` exactly."""

    CARDINALITIES = (1, 2, 83, 4096, 4097, 300_000)
    EXPONENTS = (0.0, 1.05, 3.0)

    @pytest.mark.parametrize("exponent", EXPONENTS)
    @pytest.mark.parametrize("num_items", CARDINALITIES)
    def test_edge_uniforms(self, num_items, exponent):
        dist = ZipfDistribution(num_items, exponent)
        cdf = dist._cdf
        on_cdf = cdf[cdf < 1.0][:: max(num_items // 2000, 1)]
        bucket_edges = np.arange(dist._guide.size) / dist._guide.size
        uniforms = np.concatenate(
            [
                [0.0, np.nextafter(1.0, 0.0), dist._guided_below, np.nextafter(dist._guided_below, 0.0)],
                on_cdf,
                np.nextafter(on_cdf, 0.0),
                np.nextafter(on_cdf, 1.0),
                bucket_edges[:: max(bucket_edges.size // 2000, 1)],
            ]
        )
        uniforms = uniforms[uniforms < 1.0]
        ranks = dist.sample(uniforms.size, FixedUniforms(uniforms))
        assert ranks.dtype == np.int64
        assert np.array_equal(ranks, np.searchsorted(cdf, uniforms, side="right"))

    @pytest.mark.parametrize("exponent", EXPONENTS)
    @pytest.mark.parametrize("num_items", CARDINALITIES)
    def test_sample_equals_reference(self, num_items, exponent):
        dist = ZipfDistribution(num_items, exponent)
        for size in (1, 7, 20_000):
            ranks = dist.sample(size, rng=size)
            assert ranks.dtype == np.int64 and ranks.shape == (size,)
            assert np.array_equal(ranks, reference_zipf_sample(dist, size, rng=size))

    def test_large_uniform_field_falls_back_entirely(self):
        # Every bucket of a flat 300k-item field spans more ranks than the
        # fix-up walks: the whole draw goes through the binary search.
        dist = ZipfDistribution(300_000, 0.0)
        assert dist._guided_below == 0.0
        assert ZipfDistribution(4096, 1.05)._guided_below > 0.9

    def test_guide_table_is_small(self):
        assert ZipfDistribution(300_000, 1.05)._guide.nbytes <= 256 * 1024

    def test_sample_consumes_exactly_size_uniforms(self):
        dist = ZipfDistribution(500, 1.05)
        used, twin = np.random.default_rng(5), np.random.default_rng(5)
        dist.sample(1000, used)
        twin.random(1000)
        assert used.bit_generator.state == twin.bit_generator.state
        assert np.array_equal(dist.sample(10, used), reference_zipf_sample(dist, 10, twin))

    def test_size_boundary(self):
        dist = ZipfDistribution(100, 1.1)
        empty = dist.sample(0, rng=0)
        assert empty.shape == (0,) and empty.dtype == np.int64
        with pytest.raises(ValueError, match="size"):
            dist.sample(-1, rng=0)

    @given(
        num_items=st.integers(min_value=1, max_value=3000),
        exponent=st.floats(min_value=0.0, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_distributions(self, num_items, exponent, seed):
        dist = ZipfDistribution(num_items, exponent)
        assert np.array_equal(dist.sample(513, rng=seed), reference_zipf_sample(dist, 513, rng=seed))


class TestFitZipfExponent:
    def test_recovers_planted_exponent(self):
        true_z = 1.4
        scores = np.arange(1, 2001, dtype=float) ** -true_z
        fitted = fit_zipf_exponent(scores, max_rank=scores.size)
        assert abs(fitted - true_z) < 0.05

    def test_rank_window(self):
        scores = np.arange(1, 1001, dtype=float) ** -1.2
        fitted = fit_zipf_exponent(scores, max_rank=100)
        assert abs(fitted - 1.2) < 0.05

    def test_requires_positive_scores(self):
        with pytest.raises(ValueError):
            fit_zipf_exponent(np.zeros(10), max_rank=10)

    def test_invalid_window(self):
        scores = np.arange(1, 101, dtype=float) ** -1.0
        with pytest.raises(ValueError, match="at least two ranks"):
            fit_zipf_exponent(scores, max_rank=1)

    @given(exponent=st.floats(min_value=1.05, max_value=2.5))
    @settings(max_examples=20, deadline=None)
    def test_fit_property(self, exponent):
        scores = np.arange(1, 501, dtype=float) ** -exponent
        fitted = fit_zipf_exponent(scores, max_rank=scores.size)
        assert abs(fitted - exponent) < 0.1
