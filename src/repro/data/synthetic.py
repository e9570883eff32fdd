"""Synthetic CTR stream generator.

The generator reproduces, at laptop scale, the three statistical properties
the paper's evaluation depends on:

1. **Skew** — per-field feature popularity follows a Zipf distribution
   (paper Figure 3 fits exponents of 1.05/1.1 on Criteo/CriteoTB);
2. **Drift** — the popularity ranking changes gradually from day to day
   (paper Figure 2's KL-divergence heatmaps), controlled by a
   :class:`~repro.data.drift.DriftModel`;
3. **Signal concentration** — labels are produced by a planted logistic model
   over per-feature latent weights, so features that occur often contribute
   most of the learnable signal.  Embedding schemes that give hot features
   collision-free representations can fit that signal; schemes that fold hot
   features together cannot — the mechanism behind the paper's accuracy gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.drift import DriftModel, RotatingDrift
from repro.data.schema import DatasetSchema
from repro.data.stream import Batch, iterate_batches
from repro.errors import DataError
from repro.utils.rng import SeedLike, make_rng
from repro.utils.zipf import ZipfDistribution


@dataclass
class SyntheticConfig:
    """Knobs of the synthetic stream.

    The label model is a factorization-machine-style ground truth: every
    feature carries a scalar weight (first-order signal) and a small latent
    vector (second-order signal); the logit mixes both, so the models can only
    fit the data if the embeddings of frequently-occurring features are
    learned accurately — the property that separates good and bad embedding
    compression schemes.
    """

    samples_per_day: int = 4096
    label_noise: float = 0.3
    numerical_noise: float = 1.0
    drift_swap_fraction: float = 0.05
    signal_scale: float = 2.0
    interaction_scale: float = 0.6
    latent_dim: int = 4
    seed: int = 0


class SyntheticCTRDataset:
    """Zipf-distributed, drifting, planted-signal CTR stream."""

    def __init__(
        self,
        schema: DatasetSchema,
        config: SyntheticConfig | None = None,
        drift: DriftModel | None = None,
    ):
        self.schema = schema
        self.config = config or SyntheticConfig()
        if self.config.samples_per_day <= 0:
            raise DataError("samples_per_day must be positive")
        if drift is None:
            # Day 0 is the base permutation, so a one-day schema is stationary.
            drift = RotatingDrift(
                swap_fraction=self.config.drift_swap_fraction, seed=self.config.seed + 1
            )
        self.drift = drift

        # Per-field Zipf distributions over ranks and base rank→feature maps.
        self._zipf = [
            ZipfDistribution(card, schema.zipf_exponent) for card in schema.field_cardinalities
        ]
        base_rng = make_rng(self.config.seed + 17)
        self._base_permutations = [
            base_rng.permutation(card).astype(np.int64) for card in schema.field_cardinalities
        ]

        # Planted label model: scalar weight + latent vector per global feature,
        # plus weights for the numerical features.
        weight_rng = make_rng(self.config.seed + 29)
        self._feature_weights = weight_rng.normal(0.0, 1.0, size=schema.num_features)
        self._feature_vectors = weight_rng.normal(
            0.0, 1.0, size=(schema.num_features, self.config.latent_dim)
        )
        self._numerical_weights = weight_rng.normal(
            0.0, 0.5 / max(np.sqrt(schema.num_numerical), 1.0), size=schema.num_numerical
        )
        self._bias = float(weight_rng.normal(-0.3, 0.1))
        # Normalizers so that the first- and second-order terms have unit
        # standard deviation before the configured scales are applied.
        num_pairs = schema.num_fields * (schema.num_fields - 1) / 2
        self._linear_norm = np.sqrt(schema.num_fields)
        self._interaction_norm = np.sqrt(max(num_pairs, 1.0) * self.config.latent_dim)

    # ------------------------------------------------------------------ #
    # Sample generation
    # ------------------------------------------------------------------ #
    @property
    def num_days(self) -> int:
        return self.schema.num_days

    @property
    def train_days(self) -> list[int]:
        """All days except the last, which is the test day (paper §5.1.4)."""
        if self.num_days == 1:
            return [0]
        return list(range(self.num_days - 1))

    @property
    def test_day(self) -> int:
        return self.num_days - 1

    def generate_day(self, day: int, num_samples: int | None = None, seed_offset: int = 0) -> Batch:
        """Generate all samples of one logical day as a single batch.

        The RNG draw order is the stream's format ("Synthetic stream contract"
        in docs/architecture.md).  ``num_samples=None`` is the configured day.
        """
        if not 0 <= day < self.num_days:
            raise DataError(f"day {day} outside [0, {self.num_days})")
        count = self.config.samples_per_day if num_samples is None else num_samples
        if count <= 0:
            raise DataError(f"num_samples / samples_per_day must be positive or None, got {num_samples}")
        rng = make_rng(self.config.seed + 1000 * (day + 1) + seed_offset)
        global_ids, logits = self._draw_fields(day, count, rng)
        numerical = rng.normal(0.0, self.config.numerical_noise, size=(count, self.schema.num_numerical))
        logits = logits + numerical @ self._numerical_weights + self._bias
        logits += rng.normal(0.0, self.config.label_noise, size=count)
        probabilities = 1.0 / (1.0 + np.exp(-logits))
        labels = (rng.random(count) < probabilities).astype(np.float64)
        return Batch(categorical=global_ids, numerical=numerical, labels=labels, day=day)

    def _draw_fields(self, day: int, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Global ids ``(count, fields)`` and their planted first- plus second-order logits.

        One pass: each field is sampled, mapped to global ids and folded into
        the interaction sums before the next one is drawn.
        """
        latent = self.config.latent_dim
        # Returned array first, scratch second, so the freed scratch leaves its
        # hole above the live data: measured lower peak RSS on train_dense
        # (docs/benchmarks.md, "Earlier runs, for the record").  The scratch
        # is freed right after the copy, before the (count, fields) float64
        # gathers below, so a day never holds two scratch blocks of that size
        # (docs/benchmarks.md "Evaluation in 512-row pieces").
        global_ids = np.empty((count, self.schema.num_fields), dtype=np.int64)
        field_major = np.empty(global_ids.shape[::-1], dtype=np.int64)
        total = np.zeros((count, latent))
        squares = np.zeros((count, latent))
        for ids, offset, zipf, base in zip(
            field_major, self.schema.field_offsets, self._zipf, self._base_permutations
        ):
            permutation = self.drift.permutation_for_day(day, base.shape[0], base)
            np.add(permutation.take(zipf.sample(count, rng)), offset, out=ids)
            if latent > 1:
                # Field by field, left to right: the order in which numpy
                # reduces axis 1 of the gathered (count, fields, latent) array.
                vectors = self._feature_vectors.take(ids, axis=0)
                total += vectors
                vectors *= vectors
                squares += vectors
        np.copyto(global_ids, field_major.T)
        del field_major, ids  # ``ids`` is the last row view of the scratch
        if latent == 1:
            # numpy collapses (count, fields, 1) to a contiguous (count, fields)
            # reduce, which is pairwise: sum it the way ``linear`` is summed.
            # Squared in place: ``x * x`` is the bits of ``x**2``.
            vectors = self._feature_vectors.take(global_ids)
            total = vectors.sum(axis=1, keepdims=True)
            vectors *= vectors
            squares = vectors.sum(axis=1, keepdims=True)
            del vectors
        linear = self._feature_weights.take(global_ids).sum(axis=1) / self._linear_norm
        pairwise = 0.5 * ((total**2).sum(axis=1) - squares.sum(axis=1)) / self._interaction_norm
        return global_ids, self.config.signal_scale * linear + self.config.interaction_scale * pairwise

    def day_batches(self, day: int, batch_size: int, num_samples: int | None = None) -> Iterator[Batch]:
        """Yield the day's samples split into mini-batches."""
        data = self.generate_day(day, num_samples=num_samples)
        yield from iterate_batches(data.categorical, data.numerical, data.labels, batch_size, day=day)

    def training_stream(
        self, batch_size: int, days: list[int] | None = None, samples_per_day: int | None = None
    ) -> Iterator[Batch]:
        """Chronological stream over the training days (online protocol)."""
        for day in days if days is not None else self.train_days:
            yield from self.day_batches(day, batch_size, num_samples=samples_per_day)

    def test_batch(self, num_samples: int | None = None) -> Batch:
        """The held-out last-day data used for the offline testing AUC."""
        return self.generate_day(self.test_day, num_samples=num_samples, seed_offset=99991)

    # ------------------------------------------------------------------ #
    # Statistics needed by baselines / analyses
    # ------------------------------------------------------------------ #
    def feature_frequencies(self, days: list[int] | None = None, samples_per_day: int | None = None) -> np.ndarray:
        """Exact global-feature frequency counts over the given days.

        This is the offline statistics pass required by the
        :class:`~repro.embeddings.offline.OfflineSeparationEmbedding` oracle.
        """
        counts = np.zeros(self.schema.num_features, dtype=np.float64)
        for day in days if days is not None else self.train_days:
            counts += self._histogram(day, samples_per_day)
        return counts

    def day_histograms(self, samples_per_day: int | None = None) -> np.ndarray:
        """Per-day global-feature frequency histograms, shape ``(days, n)``."""
        histograms = [self._histogram(day, samples_per_day) for day in range(self.num_days)]
        return np.array(histograms, dtype=np.float64)

    def _histogram(self, day: int, samples_per_day: int | None) -> np.ndarray:
        ids = self.generate_day(day, num_samples=samples_per_day).categorical
        return np.bincount(ids.reshape(-1), minlength=self.schema.num_features)
