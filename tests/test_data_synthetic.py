"""Tests for the synthetic CTR stream generator, drift models and statistics."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_zipf import reference_zipf_sample

from repro.data.drift import HEAD_BIAS, DriftModel, RotatingDrift
from repro.data.schema import DatasetSchema, FieldSchema
from repro.data.stats import frequency_skew_summary, kl_divergence, kl_divergence_matrix
from repro.data.stream import Batch
from repro.data.synthetic import (
    LABEL_NOISE,
    LATENT_DIM,
    NUMERICAL_NOISE,
    SyntheticConfig,
    SyntheticCTRDataset,
)
from repro.errors import DataError
from repro.experiments.common import build_dataset
from repro.utils.rng import make_rng


class NoDrift(DriftModel):
    """A stationary stream: every day uses the base permutation."""

    def permutation_for_day(self, day, cardinality, base):
        return base


def toy_schema(num_days=4, zipf=1.4):
    return DatasetSchema(
        name="toy",
        fields=[FieldSchema("a", 200), FieldSchema("b", 100), FieldSchema("c", 50)],
        num_numerical=2,
        embedding_dim=4,
        num_days=num_days,
        zipf_exponent=zipf,
    )


def make_dataset(num_days=4, samples=2000, seed=0, drift=None, **config_kwargs):
    config = SyntheticConfig(samples_per_day=samples, seed=seed, **config_kwargs)
    return SyntheticCTRDataset(toy_schema(num_days=num_days), config=config, drift=drift)


class TestGeneration:
    def test_batch_shapes(self):
        ds = make_dataset()
        batch = ds.generate_day(0)
        assert batch.categorical.shape == (2000, 3)
        assert batch.numerical.shape == (2000, 2)
        assert batch.labels.shape == (2000,)

    def test_global_ids_within_range(self):
        ds = make_dataset()
        batch = ds.generate_day(1)
        assert batch.categorical.min() >= 0
        assert batch.categorical.max() < ds.schema.num_features
        # Field 1 ids live in [200, 300).
        assert np.all(batch.categorical[:, 1] >= 200)
        assert np.all(batch.categorical[:, 1] < 300)

    def test_deterministic_per_day(self):
        ds = make_dataset()
        a = ds.generate_day(2)
        b = ds.generate_day(2)
        assert np.array_equal(a.categorical, b.categorical)
        assert np.array_equal(a.labels, b.labels)

    def test_different_days_differ(self):
        ds = make_dataset()
        assert not np.array_equal(ds.generate_day(0).categorical, ds.generate_day(1).categorical)

    def test_invalid_day(self):
        ds = make_dataset(num_days=2)
        with pytest.raises(DataError):
            ds.generate_day(5)

    def test_labels_are_binary_and_mixed(self):
        ds = make_dataset()
        labels = ds.generate_day(0).labels
        assert set(np.unique(labels).tolist()) <= {0.0, 1.0}
        assert 0.05 < labels.mean() < 0.95

    def test_zipf_skew_present(self):
        ds = make_dataset()
        counts = np.bincount(ds.generate_day(0).categorical[:, 0], minlength=200)
        summary = frequency_skew_summary(counts)
        # The most popular 10% of features should carry well over 10% of mass.
        assert summary["top_0.1"] > 0.3

    def test_train_test_split(self):
        ds = make_dataset(num_days=4)
        assert ds.train_days == [0, 1, 2]
        assert ds.test_day == 3
        single = make_dataset(num_days=1)
        assert single.train_days == [0]

    def test_a_one_day_stream_is_stationary_under_the_default_drift(self):
        # Day 0 of the default drift is the base permutation itself.
        default, stationary = make_dataset(num_days=1), make_dataset(num_days=1, drift=NoDrift())
        assert isinstance(default.drift, RotatingDrift)
        left, right = default.generate_day(0), stationary.generate_day(0)
        assert np.array_equal(left.categorical, right.categorical)
        assert np.array_equal(left.labels, right.labels)

    def test_labels_depend_on_features(self):
        """Samples sharing the same hot feature should have correlated labels
        relative to unrelated samples (the planted signal is real)."""
        ds = make_dataset(samples=8000)
        batch = ds.generate_day(0)
        feature = np.bincount(batch.categorical[:, 0]).argmax()
        mask = batch.categorical[:, 0] == feature
        rate_with = batch.labels[mask].mean()
        rate_overall = batch.labels.mean()
        assert abs(rate_with - rate_overall) > 0.01 or mask.sum() < 50


class TestStreams:
    def test_day_batches_sizes(self):
        ds = make_dataset(samples=1000)
        batches = list(ds.day_batches(0, batch_size=256))
        assert [len(b) for b in batches] == [256, 256, 256, 232]

    def test_training_stream_is_chronological(self):
        ds = make_dataset(num_days=3, samples=500)
        days = [b.day for b in ds.training_stream(200)]
        assert days == sorted(days)
        assert set(days) == {0, 1}

    def test_test_batch_uses_last_day(self):
        ds = make_dataset(num_days=3)
        assert ds.test_batch(100).day == 2

    def test_feature_frequencies_counts(self):
        ds = make_dataset(num_days=2, samples=500)
        freqs = ds.feature_frequencies()
        assert freqs.sum() == 500 * 1 * 3  # one train day, 3 fields

    def test_day_histograms_shape(self):
        ds = make_dataset(num_days=3, samples=200)
        hist = ds.day_histograms()
        assert hist.shape == (3, ds.schema.num_features)
        assert hist.sum() == 3 * 200 * 3

    def test_statistics_equal_the_add_at_pass(self):
        ds = make_dataset(num_days=3, samples=150)
        expected = np.zeros((3, ds.schema.num_features), dtype=np.float64)
        for day in range(3):
            np.add.at(expected[day], ds.generate_day(day).categorical.reshape(-1), 1.0)
        hist = ds.day_histograms()
        freqs = ds.feature_frequencies()
        assert hist.dtype == freqs.dtype == np.float64
        assert np.array_equal(hist, expected)
        assert np.array_equal(freqs, expected[:2].sum(axis=0))


class TestDrift:
    def test_no_drift_keeps_distribution(self):
        ds = make_dataset(num_days=3, samples=5000, drift=NoDrift())
        h = ds.day_histograms()
        # With add-one smoothing the only divergence left is sampling noise.
        assert kl_divergence(h[0] + 1, h[2] + 1) < 0.1

    def test_rotating_drift_changes_distribution(self):
        drifting = make_dataset(num_days=4, drift=RotatingDrift(swap_fraction=0.2, seed=1))
        static = make_dataset(num_days=4, drift=NoDrift())
        h_drift = drifting.day_histograms()
        h_static = static.day_histograms()
        assert kl_divergence(h_drift[0], h_drift[3]) > kl_divergence(h_static[0], h_static[3])

    def test_drift_grows_with_day_gap(self):
        ds = make_dataset(num_days=5, samples=4000, drift=RotatingDrift(swap_fraction=0.15, seed=2))
        matrix = kl_divergence_matrix(ds.day_histograms())
        adjacent = np.mean([matrix[i, i + 1] for i in range(4)])
        distant = matrix[0, 4]
        assert distant > adjacent

    def test_rotating_drift_day_zero_is_base(self):
        drift = RotatingDrift(swap_fraction=0.1, seed=0)
        base = np.arange(50)
        assert np.array_equal(drift.permutation_for_day(0, 50, base), base)

    def test_rotating_drift_is_permutation(self):
        drift = RotatingDrift(swap_fraction=0.3, seed=0)
        base = np.arange(100)
        for day in range(4):
            perm = drift.permutation_for_day(day, 100, base)
            assert sorted(perm.tolist()) == list(range(100))

    def test_rotating_drift_cached_and_deterministic(self):
        drift = RotatingDrift(swap_fraction=0.2, seed=3)
        base = np.arange(30)
        a = drift.permutation_for_day(3, 30, base)
        b = drift.permutation_for_day(3, 30, base)
        assert np.array_equal(a, b)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RotatingDrift(swap_fraction=1.5, seed=0)
        drift = RotatingDrift(swap_fraction=0.05, seed=0)
        with pytest.raises(ValueError):
            drift.permutation_for_day(-1, 10, np.arange(10))


# --------------------------------------------------------------------------- #
# Day generation as it was before the fused pass, kept verbatim as the oracle
# --------------------------------------------------------------------------- #
def reference_rotating_permutation(drift, cache, day, cardinality, base):
    """``RotatingDrift.permutation_for_day`` with the swap loop on numpy scalars.

    ``cache`` keeps every permutation, keyed ``(day, cardinality)``, so fields
    of equal cardinality share one permutation here exactly as they share one
    walk there.
    """
    key = (day, cardinality)
    if key in cache:
        return cache[key]
    if day == 0:
        permutation = base.copy()
    else:
        previous = reference_rotating_permutation(drift, cache, day - 1, cardinality, base)
        permutation = previous.copy()
        rng = np.random.default_rng(drift._seed_root + 7919 * day + cardinality)
        num_swaps = max(int(drift.swap_fraction * cardinality), 1)
        u = rng.random(size=(num_swaps, 2))
        ranks = np.floor(cardinality * u**HEAD_BIAS).astype(np.int64)
        ranks = np.clip(ranks, 0, cardinality - 1)
        for a, b in ranks:
            permutation[a], permutation[b] = permutation[b], permutation[a]
    cache[key] = permutation
    return permutation


class ReferenceSyntheticCTRDataset(SyntheticCTRDataset):
    """Same planted world, the old ``generate_day``: binary-search Zipf draws,
    one ``(N, fields, latent)`` gather and numpy's own axis-1 reductions."""

    def __init__(self, schema, config=None, drift=None):
        super().__init__(schema, config=config, drift=drift)
        self._reference_permutations = {}

    def _permutation(self, day, base):
        if isinstance(self.drift, RotatingDrift):
            return reference_rotating_permutation(
                self.drift, self._reference_permutations, day, base.shape[0], base
            )
        return self.drift.permutation_for_day(day, base.shape[0], base)

    def generate_day(self, day, num_samples=None, seed_offset=0):
        num_samples = num_samples or self.config.samples_per_day
        rng = make_rng(self.config.seed + 1000 * (day + 1) + seed_offset)

        categorical = np.empty((num_samples, self.schema.num_fields), dtype=np.int64)
        for f, (zipf, base) in enumerate(zip(self._zipf, self._base_permutations)):
            ranks = reference_zipf_sample(zipf, num_samples, rng)
            permutation = self._permutation(day, base)
            categorical[:, f] = permutation[ranks]
        global_ids = self.schema.to_global_ids(categorical)

        numerical = rng.normal(0.0, NUMERICAL_NOISE, size=(num_samples, self.schema.num_numerical))

        logits = self._logits(global_ids, numerical)
        logits += rng.normal(0.0, LABEL_NOISE, size=num_samples)
        probabilities = 1.0 / (1.0 + np.exp(-logits))
        labels = (rng.random(num_samples) < probabilities).astype(np.float64)
        return Batch(categorical=global_ids, numerical=numerical, labels=labels, day=day)

    def _logits(self, global_ids, numerical):
        linear = self._feature_weights[global_ids].sum(axis=1) / self._linear_norm
        vectors = self._feature_vectors[global_ids]  # (batch, fields, latent)
        total = vectors.sum(axis=1)
        squares = (vectors**2).sum(axis=1)
        pairwise = 0.5 * ((total**2).sum(axis=1) - squares.sum(axis=1)) / self._interaction_norm
        return (
            self.config.signal_scale * linear
            + self.config.interaction_scale * pairwise
            + numerical @ self._numerical_weights
            + self._bias
        )


def assert_same_day(actual: Batch, expected: Batch, where=""):
    for name in ("categorical", "numerical", "labels"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, (name, where)
        assert np.array_equal(got, want), (name, where)
    assert actual.categorical.flags.c_contiguous, where


def assert_same_planted_logits(new, oracle, day, count):
    """Labels only flip when a logit difference straddles a uniform, so a
    last-bit change in the order-sensitive sums would slip past them: compare
    the noise-free logits of the fused pass with the oracle's directly."""
    ids, field_logits = new._draw_fields(day, count, make_rng(day))
    no_numerical = np.zeros((count, new.schema.num_numerical))
    logits = field_logits + no_numerical @ new._numerical_weights + new._bias
    assert np.array_equal(logits, oracle._logits(ids, no_numerical)), (day, count)


# The drift models of the grid; the two rotating ones are what ``perf/`` runs
# (the dataset's default drift, and train_sparse's faster one).
DRIFTS = {
    "none": NoDrift,
    "rotate0.05": lambda: RotatingDrift(0.05, seed=1),
    "rotate0.2": lambda: RotatingDrift(0.2, seed=0),
}


def criteo_pair(scale, drift, samples_per_day=16384):
    """(new, oracle) datasets over one ``perf/``-shaped criteo world (57 days)."""
    schema = build_dataset("criteo", scale=scale, seed=0, num_days=57).schema
    config = SyntheticConfig(samples_per_day=samples_per_day, seed=0)
    return (
        SyntheticCTRDataset(schema, config=config, drift=DRIFTS[drift]()),
        ReferenceSyntheticCTRDataset(schema, config=config, drift=DRIFTS[drift]()),
    )


def random_schema(cardinalities, num_numerical, num_days=3, zipf=1.05):
    fields = [FieldSchema(f"f{i}", card) for i, card in enumerate(cardinalities)]
    return DatasetSchema(
        name="random", fields=fields, num_numerical=num_numerical, embedding_dim=4,
        num_days=num_days, zipf_exponent=zipf,
    )


class TestSamplesAreTheContract:
    """Every sample, label and numerical feature is bit-identical to the oracle's."""

    DAYS = (0, 1, 7, 56)
    SEED_OFFSETS = (0, 7, 100003, 99991 + 100003 * 4)
    SIZES = (1, 7, 128, 2048, 16384)

    @pytest.mark.parametrize("drift", sorted(DRIFTS))
    @pytest.mark.parametrize("scale", ["tiny", "small"])
    def test_criteo_grid(self, scale, drift):
        new, oracle = criteo_pair(scale, drift)
        for day in self.DAYS:
            for seed_offset in self.SEED_OFFSETS:
                for size in self.SIZES:
                    assert_same_day(
                        new.generate_day(day, size, seed_offset),
                        oracle.generate_day(day, size, seed_offset),
                        where=(scale, drift, day, seed_offset, size),
                    )
            assert_same_planted_logits(new, oracle, day, 16384)

    # Uniform (the Zipf sampler's guide is exact, no binary search), the
    # presets' exponent, and a steep head.
    @pytest.mark.parametrize("zipf", [0.0, 1.05, 1.6])
    @pytest.mark.parametrize("num_numerical", [0, 3])
    @pytest.mark.parametrize("num_fields", [1, 7, 8, 26])
    def test_schema_shapes(self, num_fields, num_numerical, zipf):
        cardinalities = [5 + 37 * i for i in range(num_fields)]
        schema = random_schema(cardinalities, num_numerical, zipf=zipf)
        config = SyntheticConfig(samples_per_day=700, seed=3)
        new = SyntheticCTRDataset(schema, config=config)
        oracle = ReferenceSyntheticCTRDataset(schema, config=config)
        for day in range(schema.num_days):
            assert_same_day(new.generate_day(day), oracle.generate_day(day), where=day)
            assert_same_planted_logits(new, oracle, day, 700)
        assert_same_day(new.test_batch(65), oracle.test_batch(65))

    @given(
        cardinalities=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=12),
        num_numerical=st.integers(min_value=0, max_value=4),
        zipf=st.sampled_from([0.0, 1.05, 1.6]),
        swap_fraction=st.sampled_from([None, 0.05, 0.5]),
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=1, max_value=300),
        seed_offset=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_schemas(
        self, cardinalities, num_numerical, zipf, swap_fraction, seed, size, seed_offset
    ):
        schema = random_schema(cardinalities, num_numerical, num_days=4, zipf=zipf)
        config = SyntheticConfig(samples_per_day=64, seed=seed)

        def drift():
            return None if swap_fraction is None else RotatingDrift(swap_fraction, seed=seed)

        new = SyntheticCTRDataset(schema, config=config, drift=drift())
        oracle = ReferenceSyntheticCTRDataset(schema, config=config, drift=drift())
        for day in (3, 0):
            assert_same_day(
                new.generate_day(day, size, seed_offset), oracle.generate_day(day, size, seed_offset)
            )
            assert_same_planted_logits(new, oracle, day, size)

    def test_rotating_drift_equals_the_numpy_scalar_swap_loop(self):
        # Forward jumps walk the swaps in place, a step back restarts from
        # day 0, a repeat returns the last answer; the second base of a
        # cardinality is never used (the first asker's base wins).
        requests = [56, *range(57), 3, 3, 56, 0]
        for fraction in (0.05, 0.2, 1.0):
            drift, cache = RotatingDrift(fraction, seed=4), {}
            answers = []
            for cardinality in (1, 2, 31, 3953):
                rng = np.random.default_rng(cardinality)
                bases = [rng.permutation(cardinality).astype(np.int64) for _ in range(2)]
                for day in requests:
                    for base in bases:
                        got = drift.permutation_for_day(day, cardinality, base)
                        want = reference_rotating_permutation(drift, cache, day, cardinality, bases[0])
                        assert got.dtype == want.dtype and np.array_equal(got, want), (day, cardinality)
                        answers.append((got, got.copy()))
            # No later request wrote an earlier answer.
            assert all(np.array_equal(answer, seen) for answer, seen in answers)

    def test_equal_cardinality_fields_share_one_drift_permutation(self):
        # Known quirk, pinned (see RotatingDrift's docstring): the walk is
        # keyed by cardinality, so the second of two equally sized fields is
        # ranked by the permutation derived from the first one's base.
        schema = random_schema([40, 40, 41], num_numerical=0, num_days=3)
        dataset = SyntheticCTRDataset(schema, SyntheticConfig(seed=1), RotatingDrift(0.2, seed=1))
        first, second, third = dataset._base_permutations
        assert not np.array_equal(first, second)
        dataset.generate_day(2)
        shared = dataset.drift.permutation_for_day(2, 40, second)
        assert shared is dataset.drift.permutation_for_day(2, 40, first)
        assert np.array_equal(dataset.drift.permutation_for_day(0, 40, second), first)
        assert sorted(dataset.drift._walks) == [40, 41]  # one walk per cardinality


# SHA-256 over the day's categorical, numerical and label bytes, recorded on
# the commit before the fused pass (e3964be) with the numpy named beside them.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_DAYS = {
    # (scale, drift, day, seed_offset, num_samples): digest
    ("small", "rotate0.05", 0, 100003, 16384): "bea1f0837c6346185d513d47136b2e9338f6529742763c9a79329047025ab91d",
    ("small", "rotate0.2", 7, 400012, 16384): "290658b6318becb42246cd7445fb30832567e3b05697f0cd298f8916b3bee619",
    ("small", "rotate0.2", 56, 500003, 2048): "27bd6ee3748d8e404263cfd25633076e3dac1e80f23b4f3a5f7f8e3e9cac964f",
    ("tiny", "rotate0.05", 1, 100003, 16384): "9b28ef0622a4d05a1e05b3aa91061cac0027bc1055ec6eff14b0a76b7a0ec08a",
    ("tiny", "none", 7, 0, 128): "fc864267e3a5288d9620a0b510c4d4db97757a9800d7262c12fd3dc76a2abb35",
    ("tiny", "rotate0.05", 56, 7, 7): "77a4b7b6fff690ac6fb8687b8102e0066d7021970539ff752087dfd317bbbb6c",
}


def day_digest(batch: Batch) -> str:
    digest = hashlib.sha256()
    for array in (batch.categorical, batch.numerical, batch.labels):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.skipif(
    np.__version__.split(".")[0] != GOLDEN_NUMPY.split(".")[0],
    reason=f"golden day digests were recorded on numpy {GOLDEN_NUMPY}; this is numpy "
    f"{np.__version__}, whose Generator stream or summation order may differ",
)
@pytest.mark.parametrize("key", sorted(GOLDEN_DAYS))
def test_golden_day_digests(key):
    scale, drift, day, seed_offset, size = key
    new, _ = criteo_pair(scale, drift)
    assert day_digest(new.generate_day(day, size, seed_offset)) == GOLDEN_DAYS[key]


class TestCostGuards:
    """Deterministic stand-ins for a wall-clock assertion."""

    def test_peak_allocation_of_a_day(self):
        new, _ = criteo_pair("small", "rotate0.05")
        new.generate_day(3)  # walk the drift to day 3 first: the walk is not the day's cost
        tracemalloc.start()
        try:
            batch = new.generate_day(3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = batch.categorical.nbytes + batch.numerical.nbytes + batch.labels.nbytes
        assert peak <= 2.5 * returned, (peak, returned)

    def test_a_day_holds_one_scratch_block(self):
        # The day's outputs, one (count, fields) 8-byte scratch block (the
        # field-major ids, then a float64 gather) and O(count x latent): the
        # field-major ids are freed before any gather is made.
        schema = build_dataset("criteo", scale="small", seed=0, num_days=57).schema
        config = SyntheticConfig(samples_per_day=16384, seed=0)
        new = SyntheticCTRDataset(schema, config=config, drift=DRIFTS["rotate0.05"]())
        new.generate_day(3)
        tracemalloc.start()
        try:
            batch = new.generate_day(3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        count = len(batch.labels)
        returned = batch.categorical.nbytes + batch.numerical.nbytes + batch.labels.nbytes
        scratch = count * schema.num_fields * 8
        # total, squares and one field's vectors, plus a few (count,) vectors.
        per_row = (3 * LATENT_DIM + 4) * count * 8
        assert peak <= returned + scratch + per_row, (peak - returned - scratch, per_row)

    def test_repeat_day_allocates_no_new_permutation(self):
        new, _ = criteo_pair("tiny", "rotate0.05", samples_per_day=256)
        new.generate_day(5)
        answers = {card: walk.answer for card, walk in new.drift._walks.items()}
        new.generate_day(5, seed_offset=9)
        assert all(new.drift._walks[card].answer is answers[card] for card in answers)
        new.generate_day(2)
        assert new.drift._walks.keys() == answers.keys()

    def test_drift_holds_one_walk_per_cardinality(self):
        # The footprint of a whole run: the test day, then every train day.
        new, _ = criteo_pair("small", "rotate0.05", samples_per_day=8)
        for day in [new.test_day, *new.train_days]:
            new.generate_day(day)
        cardinalities = {base.shape[0] for base in new._base_permutations}
        walks = new.drift._walks
        assert set(walks) == cardinalities
        for cardinality, walk in walks.items():
            assert walk.day == new.train_days[-1]
            assert len(walk.order) == cardinality
            assert [a.shape for a in (walk.base, walk.array, walk.answer)] == [(cardinality,)] * 3
        held = sum(a.nbytes for walk in walks.values() for a in (walk.base, walk.array, walk.answer))
        assert held == 3 * 8 * sum(cardinalities)


class TestNumSamplesBoundary:
    def test_none_is_the_configured_day(self):
        ds = make_dataset(samples=321)
        assert len(ds.generate_day(0)) == 321
        assert len(ds.generate_day(0, num_samples=None)) == 321
        assert len(ds.test_batch()) == 321

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_is_a_named_error(self, bad):
        ds = make_dataset(num_days=3, samples=100)
        calls = [
            lambda: ds.generate_day(0, num_samples=bad),
            lambda: ds.test_batch(bad),
        ]
        for call in calls:
            with pytest.raises(DataError, match=f"num_samples / samples_per_day .* got {bad}"):
                call()


class TestStats:
    def test_kl_divergence_zero_for_identical(self):
        counts = np.asarray([5.0, 3.0, 2.0])
        assert kl_divergence(counts, counts) == pytest.approx(0.0, abs=1e-9)

    def test_kl_divergence_positive_and_asymmetric(self):
        p = np.asarray([10.0, 1.0, 1.0])
        q = np.asarray([6.0, 5.0, 1.0])
        assert kl_divergence(p, q) > 0
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_kl_shape_mismatch(self):
        with pytest.raises(DataError):
            kl_divergence(np.ones(3), np.ones(4))

    def test_kl_matrix_properties(self):
        hist = np.asarray([[5.0, 1.0, 1.0], [1.0, 5.0, 1.0], [1.0, 1.0, 5.0]])
        matrix = kl_divergence_matrix(hist)
        assert matrix.shape == (3, 3)
        assert np.all(np.diag(matrix) == 0)
        assert np.all(matrix >= 0)

    def test_kl_matrix_requires_2d(self):
        with pytest.raises(DataError):
            kl_divergence_matrix(np.ones(5))

    def test_frequency_skew_summary(self):
        counts = np.zeros(1000)
        counts[:10] = 100.0
        counts[10:] = 0.1
        summary = frequency_skew_summary(counts)
        assert summary["top_0.01"] > 0.9

    def test_frequency_skew_requires_mass(self):
        with pytest.raises(DataError):
            frequency_skew_summary(np.zeros(10))


class TestConfigValidation:
    def test_samples_per_day_positive(self):
        with pytest.raises(DataError):
            SyntheticCTRDataset(toy_schema(), config=SyntheticConfig(samples_per_day=0))
