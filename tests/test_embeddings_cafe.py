"""Tests for the CAFE and CAFE-ML embedding layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.embeddings.cafe as cafe_module
import repro.sketch.hotsketch as hotsketch_module
from repro.embeddings.cafe import HYSTERESIS, CafeEmbedding
from repro.embeddings.cafe_ml import SECONDARY_SHARE, CafeMultiLevelEmbedding
from repro.embeddings.memory import MemoryBudget
from repro.embeddings.offline import OfflineSeparationEmbedding
from repro.sketch.hotsketch import NO_PAYLOAD, HotSketch
from repro.utils.hashing import hash_to_range
from sketch_slots import assign_row, payloads_of

DIM = 8
N = 2000


def make_cafe(cls=CafeEmbedding, **kwargs):
    defaults = dict(
        num_features=N,
        dim=DIM,
        num_hot_rows=16,
        num_shared_rows=32,
        rebalance_interval=5,
        learning_rate=0.1,
        rng=0,
    )
    defaults.update(kwargs)
    return cls(**defaults)


def make_cafe_ml(**kwargs):
    defaults = dict(num_secondary_rows=16)
    defaults.update(kwargs)
    return make_cafe(cls=CafeMultiLevelEmbedding, **defaults)


def shared_rows_of(emb, ids):
    """The shared-table rows of ``ids``, hashed independently of the layer."""
    return emb.shared_table[hash_to_range(np.asarray(ids), emb.num_shared_rows, seed=emb.hash_seed)]


def train_on_skewed_stream(embedding, hot_ids, steps=60, batch=64, seed=0):
    """Feed a stream where ``hot_ids`` dominate; gradients are unit vectors."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        hot_part = rng.choice(hot_ids, size=batch // 2)
        cold_part = rng.integers(0, N, size=batch // 2)
        ids = np.concatenate([hot_part, cold_part])
        grads = rng.normal(size=(batch, DIM)) * 0.1
        embedding.apply_gradients(ids, grads)


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_cafe(num_hot_rows=0)
        with pytest.raises(ValueError):
            make_cafe(num_shared_rows=0)

    @pytest.mark.parametrize("decay", [0.0, -0.5, 1.5])
    def test_decay_outside_zero_one_is_refused(self, decay):
        with pytest.raises(ValueError, match="decay"):
            make_cafe(decay=decay)

    def test_a_non_positive_threshold_is_refused(self):
        with pytest.raises(ValueError, match="threshold"):
            make_cafe(hot_threshold=0.0)

    def test_memory_accounting_includes_sketch(self):
        emb = make_cafe()
        expected = 16 * DIM + 32 * DIM + 16 * 4 * 3
        assert emb.memory_floats() == expected

    def test_plan_budget_split(self):
        budget = MemoryBudget.from_compression_ratio(N, 16, 10)
        num_hot, num_shared = CafeEmbedding.plan_budget(budget, hot_percentage=0.7)
        # Hot side costs (12 + dim) floats per hot feature.
        assert num_hot == int(0.7 * budget.total_floats) // (12 + 16)
        assert num_shared >= 1

    def test_from_budget_respects_budget(self):
        budget = MemoryBudget.from_compression_ratio(N, DIM, 10)
        emb = CafeEmbedding.from_budget(budget, rng=0)
        assert emb.memory_floats() <= budget.total_floats
        assert emb.compression_ratio() >= 10

    def test_plan_budget_invalid_percentage(self):
        budget = MemoryBudget.from_compression_ratio(N, DIM, 10)
        with pytest.raises(ValueError):
            CafeEmbedding.plan_budget(budget, hot_percentage=0.0)


class TestLookupPaths:
    def test_lookup_shape(self):
        emb = make_cafe()
        out = emb.lookup(np.asarray([[1, 2, 3]]))
        assert out.shape == (1, 3, DIM)

    def test_non_hot_features_use_shared_table(self):
        emb = make_cafe()
        ids = np.asarray([10, 20])
        out = emb.lookup(ids)
        assert np.array_equal(out, shared_rows_of(emb, ids))

    def test_hot_feature_uses_exclusive_row(self):
        emb = make_cafe(hot_threshold=5.0)
        # Manually record feature 7 as hot with a payload.
        emb.sketch.insert(np.asarray([7]), np.asarray([10.0]))
        assert assign_row(emb, 7, 3)
        out = emb.lookup(np.asarray([7]))
        assert np.allclose(out[0], emb.hot_table[3])

    def test_ids_validated(self):
        emb = make_cafe()
        with pytest.raises(ValueError):
            emb.lookup(np.asarray([N + 1]))


class TestMigration:
    def test_hot_features_get_promoted(self):
        emb = make_cafe()
        hot_ids = np.arange(10)
        train_on_skewed_stream(emb, hot_ids, steps=60)
        payloads = payloads_of(emb.sketch, hot_ids)
        # Most of the dominating features should hold exclusive rows by now.
        assert (payloads != NO_PAYLOAD).sum() >= 5
        assert emb.migrations_in > 0

    def test_promotion_initializes_from_shared_row(self):
        emb = make_cafe(hot_threshold=1e-8, rebalance_interval=1)
        feature = 42
        shared_before = shared_rows_of(emb, [feature])[0].copy()
        emb.apply_gradients(np.asarray([feature]), np.full((1, DIM), 1e-6))
        payload = payloads_of(emb.sketch, [feature])[0]
        assert payload != NO_PAYLOAD
        # The exclusive row starts from the (just updated) shared embedding,
        # so it stays close to it after one tiny gradient step.
        assert np.allclose(emb.hot_table[payload], shared_before, atol=1e-3)

    def test_demotion_frees_rows(self):
        emb = make_cafe(hot_threshold=None, rebalance_interval=1, decay=0.5, decay_interval=1)
        hot_ids = np.arange(5)
        train_on_skewed_stream(emb, hot_ids, steps=30)
        occupied_before = emb.num_hot_features()
        # Now flood with a different hot set; decay ensures the old one fades.
        train_on_skewed_stream(emb, np.arange(100, 105), steps=30, seed=1)
        assert emb.migrations_out > 0
        assert emb.num_hot_features() <= emb.num_hot_rows
        assert occupied_before > 0

    def test_a_hot_feature_is_demoted_only_below_the_hysteresis_band(self):
        emb = make_cafe(hot_threshold=10.0)
        emb.sketch.insert(np.asarray([1]), np.asarray([10.0]))
        emb._rebalance()
        assert payloads_of(emb.sketch, [1])[0] != NO_PAYLOAD
        # Below the threshold but inside the band: the row stays.
        emb.sketch.apply_decay(1.0 / HYSTERESIS + 0.01)
        emb._rebalance()
        assert payloads_of(emb.sketch, [1])[0] != NO_PAYLOAD
        # Below threshold / HYSTERESIS: the row is released.
        emb.sketch.apply_decay(0.98)
        emb._rebalance()
        assert payloads_of(emb.sketch, [1])[0] == NO_PAYLOAD
        assert emb.num_hot_features() == 0 and emb.migrations_out == 1

    def test_eviction_releases_exclusive_rows(self):
        # A 1-bucket, 1-slot sketch forces evictions of payload-holding slots.
        emb = CafeEmbedding(
            num_features=N,
            dim=DIM,
            num_hot_rows=1,
            num_shared_rows=4,
            hot_threshold=0.001,
            slots_per_bucket=1,
            rebalance_interval=1,
            rng=0,
        )
        emb.apply_gradients(np.asarray([1]), np.ones((1, DIM)))
        assert emb.num_hot_features() == 1
        # Different feature with a large score evicts the old slot.
        for _ in range(3):
            emb.apply_gradients(np.asarray([2]), np.ones((1, DIM)) * 10)
        assert emb.num_hot_features() <= 1  # row was recycled, never leaked
        total_rows = emb.num_hot_features() + len(emb._free_rows)
        assert total_rows == emb.num_hot_rows

    @pytest.mark.parametrize("decay", [0.5, 1.0])
    def test_the_sketch_decays_by_cafes_factor_every_interval(self, decay):
        emb = make_cafe(decay=decay, decay_interval=2)
        grad = np.ones((1, DIM))
        emb.apply_gradients(np.asarray([7]), grad)
        first = emb.sketch.query(np.asarray([7]))[0]
        emb.apply_gradients(np.asarray([8]), grad)  # step 2 decays
        assert emb.sketch.query(np.asarray([7]))[0] == first * decay
        emb.apply_gradients(np.asarray([8]), grad)  # step 3 does not
        assert emb.sketch.query(np.asarray([7]))[0] == first * decay

    def test_adaptive_threshold_tracks_kth_score(self):
        emb = make_cafe(hot_threshold=None, rebalance_interval=1)
        train_on_skewed_stream(emb, np.arange(8), steps=20)
        occupied = emb.sketch.keys != -1
        scores = emb.sketch.scores[occupied]
        k = min(emb.num_hot_rows, scores.size)
        kth = np.partition(scores, -k)[-k]
        assert emb.hot_threshold == pytest.approx(kth)

    def test_fixed_threshold_mode(self):
        emb = make_cafe(hot_threshold=1e9, rebalance_interval=1)
        train_on_skewed_stream(emb, np.arange(8), steps=20)
        # Nothing can cross an absurdly high fixed threshold.
        assert emb.num_hot_features() == 0
        assert emb.hot_threshold == 1e9


class TestOneReadPath:
    """A CAFE table reads a feature one way, routes -> gather: the step's
    lookup, CAFE-ML's medium class and a promotion's initial row."""

    def test_a_cafe_ml_step_probes_the_sketch_once(self, monkeypatch):
        emb = make_cafe_ml(hot_threshold=1.0, rebalance_interval=1000)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 64, size=(32, 3))
        emb.apply_gradients(ids, rng.normal(scale=0.1, size=ids.shape + (DIM,)))
        queries, probes = [], []
        real_query, real_hash = HotSketch.query, cafe_module.hash_to_bucket

        def query(sketch, keys):
            queries.append(keys)
            return real_query(sketch, keys)

        def hash_to_bucket(values, num_buckets, seed=0):
            probes.append(seed)
            return real_hash(values, num_buckets, seed=seed)

        monkeypatch.setattr(HotSketch, "query", query)
        monkeypatch.setattr(cafe_module, "hash_to_bucket", hash_to_bucket)
        monkeypatch.setattr(hotsketch_module, "hash_to_bucket", hash_to_bucket)
        emb.lookup(ids)  # step 2: no rebalance
        assert emb._cached_plan.routes["medium_mask"].any()
        emb.apply_gradients(ids, rng.normal(scale=0.1, size=ids.shape + (DIM,)))
        assert emb.step() == 2
        assert queries == []
        assert probes.count(emb.sketch.seed) == 1

    @pytest.mark.parametrize("cls", [CafeEmbedding, CafeMultiLevelEmbedding])
    def test_a_promoted_row_is_the_gather_taken_just_before(self, cls, monkeypatch):
        kwargs = {"num_secondary_rows": 16} if cls is CafeMultiLevelEmbedding else {}
        emb = make_cafe(cls=cls, hot_threshold=5.0, **kwargs)
        emb.sketch.insert(np.asarray([1, 2, 3]), np.asarray([10.0, 7.0, 1.5]))
        ids = np.asarray([1, 2])
        routes = emb.routes(ids)
        before = emb.gather(ids, routes)
        if cls is CafeMultiLevelEmbedding:
            assert routes["medium_mask"].all()  # each reads two rows until promoted
        gathered = []
        real_gather = CafeEmbedding.gather

        def gather(layer, uids, routes):
            gathered.append(sorted(uids.tolist()))
            return real_gather(layer, uids, routes)

        monkeypatch.setattr(CafeEmbedding, "gather", gather)
        emb._rebalance()
        rows = payloads_of(emb.sketch, ids)
        assert (rows != NO_PAYLOAD).all()
        assert gathered == [[1, 2]]
        assert np.array_equal(emb.hot_table[rows], before)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=60),
        st.lists(st.floats(0.0, 30.0), min_size=60, max_size=60),
        st.floats(0.5, 20.0),
    )
    def test_the_medium_class_is_the_sketch_score_band(self, keys, scores, threshold):
        emb = make_cafe_ml(num_hot_rows=4, slots_per_bucket=2, hot_threshold=threshold)
        emb.sketch.insert(np.asarray(keys), np.asarray(scores[: len(keys)]))
        emb._rebalance()
        ids = np.arange(48)
        routes = emb.routes(ids)
        cold = ids[~routes["hot_mask"]]
        oracle = emb.sketch.query(cold) >= emb.medium_threshold
        assert np.array_equal(routes["medium_mask"], oracle)


class TestClassification:
    """CAFE owns the hot (and CAFE-ML the medium) threshold; the sketch only
    holds the scores it compares against them."""

    def test_hot_classification(self):
        emb = make_cafe(hot_threshold=5.0)
        emb.sketch.insert(np.asarray([1, 2, 3]), np.asarray([10.0, 5.0, 1.0]))
        emb._rebalance()
        hot = payloads_of(emb.sketch, [1, 2, 3, 4]) != NO_PAYLOAD
        assert hot.tolist() == [True, True, False, False]
        row = payloads_of(emb.sketch, [1])[0]
        assert np.array_equal(emb.lookup(np.asarray([1]))[0], emb.hot_table[row])

    def test_medium_classification(self):
        emb = CafeMultiLevelEmbedding(
            num_features=N, dim=DIM, num_hot_rows=16, num_shared_rows=32,
            num_secondary_rows=16, hot_threshold=10.0, rng=0,
        )
        emb.sketch.insert(np.asarray([1, 2, 3]), np.asarray([20.0, 5.0, 1.0]))
        emb._rebalance()
        assert emb.medium_threshold == pytest.approx(2.0)
        assert (payloads_of(emb.sketch, [1, 2, 3]) != NO_PAYLOAD).tolist() == [True, False, False]
        assert emb.routes(np.asarray([2, 3]))["medium_mask"].tolist() == [True, False]

    def test_hot_features_listing(self):
        emb = make_cafe(hot_threshold=5.0)
        emb.sketch.insert(np.asarray([1, 2, 3]), np.asarray([10.0, 7.0, 1.0]))
        emb._rebalance()
        holders = emb.sketch.payloads != NO_PAYLOAD
        assert set(emb.sketch.keys[holders].tolist()) == {1, 2}
        assert np.all(emb.sketch.scores[holders] >= emb.hot_threshold)
        assert emb.num_hot_features() == 2


class TestUpdates:
    def test_shared_update_moves_embedding(self):
        emb = make_cafe()
        ids = np.asarray([3])
        before = emb.lookup(ids).copy()
        emb.apply_gradients(ids, np.ones((1, DIM)))
        after = emb.lookup(ids)
        assert not np.allclose(before, after)

    def test_frequency_mode_scores_by_count(self):
        emb = make_cafe(use_frequency=True, rebalance_interval=1000)
        emb.apply_gradients(np.asarray([5, 5, 6]), np.zeros((3, DIM)))
        assert emb.sketch.query(np.asarray([5]))[0] == pytest.approx(2.0)
        assert emb.sketch.query(np.asarray([6]))[0] == pytest.approx(1.0)

    def test_gradient_norm_mode_scores_by_norm(self):
        emb = make_cafe(rebalance_interval=1000)
        grads = np.zeros((2, DIM))
        grads[0, 0] = 3.0
        grads[1, 0] = 4.0
        emb.apply_gradients(np.asarray([5, 6]), grads)
        assert emb.sketch.query(np.asarray([5]))[0] == pytest.approx(3.0)
        assert emb.sketch.query(np.asarray([6]))[0] == pytest.approx(4.0)

    def test_step_counter(self):
        emb = make_cafe()
        emb.apply_gradients(np.asarray([1]), np.zeros((1, DIM)))
        emb.apply_gradients(np.asarray([2]), np.zeros((1, DIM)))
        assert emb.step() == 2


class TestRowInvariants:
    def test_no_leak_or_double_free_across_cycles(self):
        """Exclusive rows always partition into {free} ∪ {sketch-assigned}.

        A tiny sketch under a churning stream exercises every path that
        moves rows: promotion, demotion, SpaceSaving eviction, release.
        """
        emb = CafeEmbedding(
            num_features=N,
            dim=DIM,
            num_hot_rows=4,
            num_shared_rows=8,
            slots_per_bucket=2,
            rebalance_interval=2,
            decay=0.7,
            decay_interval=3,
            rng=0,
        )
        rng = np.random.default_rng(3)
        for step in range(120):
            # Rotate the hot set so features keep crossing the boundary.
            hot_ids = np.arange((step // 20) * 7, (step // 20) * 7 + 5)
            cold_ids = rng.integers(0, N, size=11)
            ids = np.concatenate([hot_ids, cold_ids])
            grads = rng.normal(size=(ids.size, DIM))
            emb.apply_gradients(ids, grads)
            emb.check_row_invariants()
        assert emb.migrations_in > 0
        assert emb.migrations_out > 0

    def test_release_rows_is_batched_and_filters_sentinels(self):
        emb = make_cafe()
        before = len(emb._free_rows)
        taken = emb._free_rows.claim(3)
        emb._release_rows(np.asarray([taken[0], -1, taken[1], taken[2], -1]))
        assert len(emb._free_rows) == before
        assert emb.migrations_out == 3
        emb.check_row_invariants()


class TestCheckpointing:
    def test_state_roundtrip_preserves_behaviour(self):
        emb = make_cafe()
        train_on_skewed_stream(emb, np.arange(6), steps=30)
        state = emb.state_dict()
        clone = make_cafe()
        clone.load_state_dict(state)
        ids = np.arange(50)
        assert np.allclose(emb.lookup(ids), clone.lookup(ids))
        assert clone.hot_threshold == emb.hot_threshold
        assert clone.num_hot_features() == emb.num_hot_features()

    def test_row_optimizer_state_is_built_with_the_arena_and_checkpointed(self):
        emb = make_cafe(optimizer="adagrad")
        accumulator = emb._optimizer.state["accumulator"]
        assert accumulator.shape == (emb.num_hot_rows + emb.num_shared_rows,) == (48,)
        # Checkpointed from the build on: zero before the first step.
        assert not emb.state_dict()["optimizer.accumulator"].any()
        train_on_skewed_stream(emb, np.arange(6), steps=1)
        assert emb._optimizer.state["accumulator"] is accumulator and accumulator.any()
        assert np.array_equal(emb.state_dict()["optimizer.accumulator"], accumulator)

    def test_state_covers_every_arena_region(self):
        emb = make_cafe()
        state = emb.state_dict()
        # The base layer's tables are exactly its two arena regions.
        assert {key for key in state if key.endswith("_table")} == {"hot_table", "shared_table"}


class TestCafeMultiLevel:
    def make_ml(self, **kwargs):
        defaults = dict(
            num_features=N,
            dim=DIM,
            num_hot_rows=16,
            num_shared_rows=32,
            num_secondary_rows=16,
            rebalance_interval=5,
            learning_rate=0.1,
            rng=0,
        )
        defaults.update(kwargs)
        return CafeMultiLevelEmbedding(**defaults)

    def test_memory_counts_both_shared_tables(self):
        emb = self.make_ml()
        expected = 16 * DIM + 32 * DIM + 16 * DIM + 16 * 4 * 3
        assert emb.memory_floats() == expected

    def test_medium_features_pool_two_tables(self):
        emb = self.make_ml(hot_threshold=100.0)
        feature = 9
        # Score above the medium threshold (100 * 0.2 = 20) but below hot.
        emb.sketch.insert(np.asarray([feature]), np.asarray([50.0]))
        out = emb.lookup(np.asarray([feature]))[0]
        primary = emb.shared_table[
            int(np.asarray(__import__("repro.utils.hashing", fromlist=["hash_to_range"]).hash_to_range(np.asarray([feature]), emb.num_shared_rows, seed=emb.hash_seed))[0])
        ]
        assert not np.allclose(out, primary)

    def test_cold_features_use_primary_only(self):
        emb = self.make_ml(hot_threshold=100.0)
        out = emb.lookup(np.asarray([15]))[0]
        from repro.utils.hashing import hash_to_range

        row = hash_to_range(np.asarray([15]), emb.num_shared_rows, seed=emb.hash_seed)[0]
        assert np.allclose(out, emb.shared_table[row])

    def test_from_budget_split(self):
        budget = MemoryBudget.from_compression_ratio(N, DIM, 10)
        emb = CafeMultiLevelEmbedding.from_budget(budget, rng=0)
        assert emb.memory_floats() <= budget.total_floats
        assert emb.num_secondary_rows >= 1

    def test_from_budget_gives_the_secondary_table_its_share(self):
        budget = MemoryBudget.from_compression_ratio(N, DIM, 10)
        emb = CafeMultiLevelEmbedding.from_budget(budget, rng=0)
        num_hot, total_shared = CafeEmbedding.plan_budget(budget, 0.7, 4)
        assert emb.num_hot_rows == num_hot
        assert emb.num_secondary_rows == int(total_shared * SECONDARY_SHARE)
        assert emb.num_shared_rows == total_shared - emb.num_secondary_rows

    def test_state_roundtrip(self):
        emb = self.make_ml()
        train_on_skewed_stream(emb, np.arange(6), steps=20)
        clone = self.make_ml()
        clone.load_state_dict(emb.state_dict())
        ids = np.arange(30)
        assert np.allclose(emb.lookup(ids), clone.lookup(ids))

    def test_state_roundtrip_through_arena_regions(self):
        """The multi-level subclass checkpoints every arena region.

        The secondary table must survive the round trip (a regression guard
        for the base class hardcoding ``shared_table``), and the restored
        layer must *train* identically, not just look up identically.
        """
        emb = self.make_ml()
        train_on_skewed_stream(emb, np.arange(6), steps=20)
        state = emb.state_dict()
        assert {key for key in state if key.endswith("_table")} == {
            "hot_table", "shared_table", "secondary_table"
        }

        clone = self.make_ml()
        clone.load_state_dict(state)
        assert np.allclose(clone.secondary_table, emb.secondary_table)

        # Continue training both from the checkpoint: trajectories must match.
        rng = np.random.default_rng(11)
        for _ in range(10):
            ids = rng.integers(0, N, size=(8,))
            grads = rng.normal(size=(8, DIM)) * 0.1
            emb.apply_gradients(ids, grads.copy())
            clone.apply_gradients(ids, grads.copy())
        ids = np.arange(60)
        assert np.allclose(emb.lookup(ids), clone.lookup(ids))
        assert np.allclose(emb.secondary_table, clone.secondary_table)

    def test_medium_updates_touch_secondary_table(self):
        emb = self.make_ml(hot_threshold=100.0)
        feature = 11
        emb.sketch.insert(np.asarray([feature]), np.asarray([50.0]))
        secondary_before = emb.secondary_table.copy()
        emb.apply_gradients(np.asarray([feature]), np.ones((1, DIM)))
        assert not np.allclose(emb.secondary_table, secondary_before)


class TestOfflineSeparation:
    def test_top_frequency_features_get_exclusive_rows(self):
        freqs = np.zeros(N)
        freqs[:10] = 100.0
        emb = OfflineSeparationEmbedding(N, DIM, num_hot_rows=10, num_shared_rows=16, frequencies=freqs, rng=0)
        assert set(np.nonzero(emb.row_of != -1)[0].tolist()) == set(range(10))

    def test_lookup_uses_exclusive_for_hot(self):
        freqs = np.zeros(N)
        freqs[5] = 10.0
        emb = OfflineSeparationEmbedding(N, DIM, num_hot_rows=1, num_shared_rows=4, frequencies=freqs, rng=0)
        out = emb.lookup(np.asarray([5]))[0]
        assert np.allclose(out, emb.hot_table[emb.row_of[5]])

    def test_frequency_shape_validated(self):
        with pytest.raises(ValueError):
            OfflineSeparationEmbedding(N, DIM, 4, 4, frequencies=np.zeros(N - 1))

    def test_from_budget_matches_cafe_plan(self):
        budget = MemoryBudget.from_compression_ratio(N, DIM, 10)
        freqs = np.random.default_rng(0).random(N)
        emb = OfflineSeparationEmbedding.from_budget(budget, frequencies=freqs, rng=0)
        cafe_hot, cafe_shared = CafeEmbedding.plan_budget(budget, 0.7, 4)
        assert emb.num_hot_rows == cafe_hot
        assert emb.num_shared_rows == cafe_shared

    def test_updates_move_both_tables(self):
        freqs = np.zeros(N)
        freqs[3] = 5.0
        emb = OfflineSeparationEmbedding(N, DIM, 1, 4, frequencies=freqs, rng=0)
        hot_before = emb.hot_table.copy()
        shared_before = emb.shared_table.copy()
        emb.apply_gradients(np.asarray([3, 100]), np.ones((2, DIM)))
        assert not np.allclose(emb.hot_table, hot_before)
        assert not np.allclose(emb.shared_table, shared_before)
