"""Tests for the baseline embedding schemes: Full, Hash, Q-R, AdaEmbed, MDE."""

import numpy as np
import pytest

from repro.embeddings.ada_embed import (
    HYSTERESIS,
    IMPORTANCE_DECAY,
    REALLOCATION_INTERVAL,
    UNALLOCATED,
    AdaEmbed,
)
from repro.embeddings.full import FullEmbedding
from repro.embeddings.hash_embedding import HashEmbedding
from repro.embeddings.memory import MemoryBudget
from repro.embeddings.mde import MixedDimensionEmbedding
from repro.embeddings.qr_embedding import QRTrickEmbedding
from repro.errors import MemoryBudgetError

DIM = 8
N = 1000


def lookup_update_cycle(embedding, ids, target_rows=None, steps=30):
    """Drive the embedding toward per-feature targets; return mean |error|."""
    rng = np.random.default_rng(0)
    targets = target_rows if target_rows is not None else rng.normal(size=(N, DIM))
    for _ in range(steps):
        vectors = embedding.lookup(ids)
        grads = 2 * (vectors - targets[ids])
        embedding.apply_gradients(ids, grads)
    final = embedding.lookup(ids)
    return float(np.abs(final - targets[ids]).mean())


class TestFullEmbedding:
    def test_lookup_shape(self):
        emb = FullEmbedding(N, DIM, rng=0)
        out = emb.lookup(np.asarray([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, DIM)

    def test_distinct_features_distinct_rows(self):
        emb = FullEmbedding(N, DIM, rng=0)
        out = emb.lookup(np.asarray([0, 1]))
        assert not np.allclose(out[0], out[1])

    def test_update_moves_toward_target(self):
        emb = FullEmbedding(N, DIM, rng=0, learning_rate=0.1)
        ids = np.arange(20)
        error = lookup_update_cycle(emb, ids, steps=100)
        assert error < 0.05

    def test_ids_out_of_range(self):
        emb = FullEmbedding(N, DIM, rng=0)
        with pytest.raises(ValueError):
            emb.lookup(np.asarray([N]))
        with pytest.raises(ValueError):
            emb.lookup(np.asarray([-1]))

    def test_gradient_shape_checked(self):
        emb = FullEmbedding(N, DIM, rng=0)
        with pytest.raises(ValueError):
            emb.apply_gradients(np.asarray([1]), np.zeros((1, DIM + 1)))

    def test_memory_and_ratio(self):
        emb = FullEmbedding(N, DIM, rng=0)
        assert emb.memory_floats() == N * DIM
        assert emb.compression_ratio() == pytest.approx(1.0)

    def test_describe(self):
        info = FullEmbedding(N, DIM, rng=0).describe()
        assert info["method"] == "FullEmbedding"
        assert info["memory_floats"] == N * DIM


class TestHashEmbedding:
    def test_collisions_share_rows(self):
        emb = HashEmbedding(N, DIM, num_rows=1, rng=0)
        out = emb.lookup(np.asarray([0, 1, 2]))
        assert np.allclose(out[0], out[1])
        assert np.allclose(out[1], out[2])

    def test_from_budget_fits(self):
        budget = MemoryBudget.from_compression_ratio(N, DIM, 10)
        emb = HashEmbedding.from_budget(budget, rng=0)
        assert emb.memory_floats() <= budget.total_floats
        assert emb.compression_ratio() >= 10

    def test_rows_never_exceed_features(self):
        emb = HashEmbedding(N, DIM, num_rows=10 * N, rng=0)
        assert emb.num_rows == N

    def test_update_affects_all_colliding_features(self):
        emb = HashEmbedding(N, DIM, num_rows=1, rng=0, learning_rate=0.5)
        before = emb.lookup(np.asarray([5])).copy()
        emb.apply_gradients(np.asarray([7]), np.ones((1, DIM)))
        after = emb.lookup(np.asarray([5]))
        assert not np.allclose(before, after)

    def test_deterministic_hash(self):
        a = HashEmbedding(N, DIM, num_rows=32, rng=0)
        b = HashEmbedding(N, DIM, num_rows=32, rng=1)
        assert np.array_equal(a._rows_for(np.arange(100)), b._rows_for(np.arange(100)))

    def test_invalid_rows(self):
        with pytest.raises(ValueError):
            HashEmbedding(N, DIM, num_rows=0)


class TestQRTrickEmbedding:
    def test_unique_decomposition(self):
        emb = QRTrickEmbedding(N, DIM, num_remainder_rows=40, rng=0)
        q, r = emb._decompose(np.arange(N))
        pairs = set(zip(q.tolist(), r.tolist()))
        assert len(pairs) == N  # every feature has a unique (quotient, remainder) pair

    def test_lookup_is_the_sum_of_its_quotient_and_remainder_rows(self):
        emb = QRTrickEmbedding(N, DIM, num_remainder_rows=40, rng=0)
        ids = np.asarray([0, 39, 40, 999])
        expected = emb.quotient_table[ids // 40] + emb.remainder_table[ids % 40]
        np.testing.assert_array_equal(emb.lookup(ids), expected)

    def test_gradients_flow_to_both_tables(self):
        """The gradient of a sum reaches both terms unchanged: the id's
        quotient and remainder rows take the same step, and no other row moves."""
        emb = QRTrickEmbedding(N, DIM, num_remainder_rows=40, rng=0)
        q_before = emb.quotient_table.copy()
        r_before = emb.remainder_table.copy()
        emb.apply_gradients(np.asarray([85]), np.ones((1, DIM)))  # quotient 2, remainder 5
        q_step = emb.quotient_table - q_before
        r_step = emb.remainder_table - r_before
        assert np.flatnonzero(np.abs(q_step).sum(axis=1)).tolist() == [2]
        assert np.flatnonzero(np.abs(r_step).sum(axis=1)).tolist() == [5]
        # One SGD step of the shared gradient each (float32 table arithmetic).
        np.testing.assert_allclose(q_step[2], -emb.learning_rate, rtol=1e-5)
        np.testing.assert_allclose(r_step[5], -emb.learning_rate, rtol=1e-5)

    def test_from_budget_fits(self):
        budget = MemoryBudget.from_compression_ratio(N, DIM, 5)
        emb = QRTrickEmbedding.from_budget(budget, rng=0)
        assert emb.memory_floats() <= budget.total_floats

    def test_from_budget_structural_floor(self):
        budget = MemoryBudget.from_compression_ratio(N, DIM, 200)
        with pytest.raises(MemoryBudgetError):
            QRTrickEmbedding.from_budget(budget, rng=0)

    def test_update_moves_toward_target(self):
        emb = QRTrickEmbedding(N, DIM, num_remainder_rows=200, rng=0, learning_rate=0.1)
        # Pick ids with distinct quotients AND remainders so the fit is exact;
        # colliding components would couple the targets (QR's inherent error).
        ids = np.arange(5) * 201
        ids = ids[ids < N]
        error = lookup_update_cycle(emb, ids, steps=150)
        assert error < 0.2


class TestAdaEmbed:
    def test_starts_unallocated(self):
        emb = AdaEmbed(N, DIM, num_rows=32, rng=0)
        assert emb.num_allocated() == 0
        assert np.all(emb.row_of == UNALLOCATED)

    def test_importance_accumulates_and_allocates(self):
        emb = AdaEmbed(N, DIM, num_rows=8, rng=0)
        hot_ids = np.asarray([1, 2, 3, 4])
        for _ in range(REALLOCATION_INTERVAL):
            grads = np.ones((4, DIM))
            emb.apply_gradients(hot_ids, grads)
        assert emb.num_allocated() > 0
        assert set(np.nonzero(emb.row_of != UNALLOCATED)[0].tolist()) <= {1, 2, 3, 4}

    def test_reallocation_prefers_important_features(self):
        """The first pass gives both rows to the only features seen; the next
        hands them to the features that now beat them by the hysteresis."""
        emb = AdaEmbed(N, DIM, num_rows=2, rng=0)
        for _ in range(REALLOCATION_INTERVAL):
            emb.apply_gradients(np.asarray([10, 11]), np.ones((2, DIM)) * 0.1)
        assert set(np.nonzero(emb.row_of != UNALLOCATED)[0].tolist()) == {10, 11}
        for _ in range(REALLOCATION_INTERVAL):
            emb.apply_gradients(np.asarray([20, 21]), np.ones((2, DIM)) * 10.0)
        allocated = set(np.nonzero(emb.row_of != UNALLOCATED)[0].tolist())
        assert allocated == {20, 21}

    def test_importance_decays_by_its_factor_each_step(self):
        emb = AdaEmbed(N, DIM, num_rows=4, rng=0)
        emb.apply_gradients(np.asarray([7]), np.ones((1, DIM)))
        first = emb.importance[7]
        assert first > 0
        emb.apply_gradients(np.asarray([8]), np.ones((1, DIM)))
        assert emb.importance[7] == first * IMPORTANCE_DECAY

    def test_reallocation_runs_every_interval(self):
        emb = AdaEmbed(N, DIM, num_rows=4, rng=0)
        for _ in range(REALLOCATION_INTERVAL - 1):
            emb.apply_gradients(np.asarray([1, 2]), np.ones((2, DIM)))
        assert emb.num_allocated() == 0 and emb.reallocation_count == 0
        emb.apply_gradients(np.asarray([1, 2]), np.ones((2, DIM)))
        assert emb.num_allocated() == 2 and emb.reallocation_count == 2

    @pytest.mark.parametrize("challenger_grad, swapped", [(0.4, False), (0.5, True)])
    def test_a_challenger_takes_the_row_only_past_the_hysteresis(self, challenger_grad, swapped):
        """With one row, a feature that outscores the row's holder takes it
        only once its importance reaches ``HYSTERESIS`` times the holder's."""
        emb = AdaEmbed(N, DIM, num_rows=1, rng=0)
        for _ in range(REALLOCATION_INTERVAL):
            emb.apply_gradients(np.asarray([10]), np.ones((1, DIM)))
        assert emb.row_of[10] != UNALLOCATED
        for _ in range(REALLOCATION_INTERVAL):
            emb.apply_gradients(np.asarray([20]), np.ones((1, DIM)) * challenger_grad)
        # The pass on the last step compared these two scores.
        ratio = emb.importance[20] / emb.importance[10]
        assert ratio > 1.0 and (ratio >= HYSTERESIS) == swapped
        assert (emb.row_of[20] != UNALLOCATED) == swapped
        assert (emb.row_of[10] != UNALLOCATED) != swapped

    def test_from_budget_floor(self):
        budget = MemoryBudget.from_compression_ratio(N, DIM, DIM + 1)
        with pytest.raises(MemoryBudgetError):
            AdaEmbed.from_budget(budget, rng=0)

    def test_from_budget_counts_importance_memory(self):
        budget = MemoryBudget.from_compression_ratio(N, DIM, 2)
        emb = AdaEmbed.from_budget(budget, rng=0)
        assert emb.memory_floats() <= budget.total_floats + DIM  # one-row slack
        assert emb.importance.size == N

    def test_lookup_unallocated_uses_shared(self):
        emb = AdaEmbed(N, DIM, num_rows=4, rng=0)
        out = emb.lookup(np.asarray([5, 6]))
        assert out.shape == (2, DIM)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AdaEmbed(N, DIM, num_rows=0)


class TestMixedDimensionEmbedding:
    CARDS = [400, 300, 200, 100]

    def test_lookup_shape(self):
        emb = MixedDimensionEmbedding(self.CARDS, DIM, field_dims=[2, 4, 8, 8], rng=0)
        out = emb.lookup(np.asarray([[0, 450, 750, 950]]))
        assert out.shape == (1, 4, DIM)

    def test_field_dim_validation(self):
        with pytest.raises(ValueError):
            MixedDimensionEmbedding(self.CARDS, DIM, field_dims=[2, 4, 8])
        with pytest.raises(ValueError):
            MixedDimensionEmbedding(self.CARDS, DIM, field_dims=[2, 4, 8, 16])

    def test_from_budget_popularity_rule(self):
        budget = MemoryBudget.from_compression_ratio(sum(self.CARDS), DIM, 4)
        emb = MixedDimensionEmbedding.from_budget(budget, field_cardinalities=self.CARDS, rng=0)
        assert emb.memory_floats() <= budget.total_floats
        # Higher-cardinality fields get at most the width of lower-cardinality ones.
        assert emb.field_dims[0] <= emb.field_dims[-1]

    def test_from_budget_floor(self):
        budget = MemoryBudget.from_compression_ratio(sum(self.CARDS), DIM, 100)
        with pytest.raises(MemoryBudgetError):
            MixedDimensionEmbedding.from_budget(budget, field_cardinalities=self.CARDS, rng=0)

    def test_update_moves_toward_target(self):
        emb = MixedDimensionEmbedding(self.CARDS, DIM, field_dims=[4, 4, 8, 8], rng=0, learning_rate=0.1)
        ids = np.asarray([[0, 401, 701, 901]])
        rng = np.random.default_rng(1)
        target = rng.normal(size=(1, 4, DIM))
        for _ in range(200):
            out = emb.lookup(ids)
            emb.apply_gradients(ids, 2 * (out - target))
        assert np.abs(emb.lookup(ids) - target).mean() < 0.3

    def test_projection_updates_only_for_narrow_fields(self):
        emb = MixedDimensionEmbedding(self.CARDS, DIM, field_dims=[2, DIM, DIM, DIM], rng=0)
        proj_full_before = emb.projections[1].copy()
        ids = np.asarray([[0, 401, 701, 901]])
        emb.apply_gradients(ids, np.ones((1, 4, DIM)))
        # Identity projection of full-width fields is never touched.
        assert np.array_equal(emb.projections[1], proj_full_before)
