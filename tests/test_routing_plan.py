"""Tests for the routing-plan engine, FreeRowPool, and vectorized parity."""

import numpy as np
import pytest

from repro.embeddings import create_embedding
from repro.embeddings.cafe import CafeEmbedding, rows_partition
from repro.embeddings.plan import FreeRowPool, RoutingPlan, ScatterPlan
from repro.sketch.hotsketch import EMPTY_KEY, NO_PAYLOAD, EvictionBatch, HotSketch
from repro.store import ShardedEmbeddingStore
from sketch_slots import assign_row, set_payload

N = 2000
DIM = 8


def make_cafe(**kwargs):
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
    return CafeEmbedding(**defaults)


class TestRoutingPlanMatching:
    def test_matches_same_batch(self):
        ids = np.asarray([1, 2, 3, 4])
        plan = RoutingPlan(uids=ids.copy(), token=0)
        assert plan.matches(ids, token=0)

    def test_rejects_different_token(self):
        ids = np.asarray([1, 2, 3])
        plan = RoutingPlan(uids=ids.copy(), token=0)
        assert not plan.matches(ids, token=1)

    def test_rejects_different_ids_or_shape(self):
        ids = np.asarray([1, 2, 3])
        plan = RoutingPlan(uids=ids.copy(), token=0)
        assert not plan.matches(np.asarray([1, 2, 4]), token=0)
        assert not plan.matches(ids.reshape(3, 1), token=0)
        assert not plan.matches(np.asarray([1, 2]), token=0)


class TestPlanReuse:
    @pytest.mark.parametrize("method,cr", [("hash", 10.0), ("qr", 10.0), ("mde", 2.0),
                                           ("adaembed", 4.0), ("cafe", 10.0), ("cafe_ml", 10.0)])
    def test_lookup_then_update_share_one_plan(self, method, cr):
        emb = create_embedding(
            method,
            num_features=N,
            dim=DIM,
            compression_ratio=cr,
            field_cardinalities=[800, 600, 400, 200],
            rng=np.random.default_rng(1),
        )
        ids = np.asarray([[1, 5, 9], [2, 5, 1999]])
        grads = np.full(ids.shape + (DIM,), 0.01)
        emb.lookup(ids)
        emb.apply_gradients(ids, grads)
        # One miss (the forward lookup builds the plan), one hit (the
        # backward pass reuses it): hashing ran once for the step.
        assert emb.plan_stats.misses == 1
        assert emb.plan_stats.hits == 1

    def test_cafe_plan_invalidated_after_update(self):
        emb = make_cafe()
        ids = np.asarray([1, 2, 3])
        grads = np.ones((3, DIM))
        emb.lookup(ids)
        emb.apply_gradients(ids, grads)  # sketch mutated -> plan stale
        emb.lookup(ids)
        assert emb.plan_stats.misses == 2
        assert emb.plan_stats.hits == 1

    def test_stateless_backend_keeps_plan_across_steps(self):
        emb = create_embedding("hash", num_features=N, dim=DIM, compression_ratio=10.0, rng=0)
        ids = np.asarray([4, 5, 6])
        grads = np.ones((3, DIM))
        for _ in range(3):
            emb.lookup(ids)
            emb.apply_gradients(ids, grads)
        # Hash routing depends only on the ids: a repeated batch never rehashes.
        assert emb.plan_stats.misses == 1
        assert emb.plan_stats.hits == 5

    def test_cafe_direct_sketch_insert_invalidates_plan(self):
        emb = make_cafe(hot_threshold=5.0)
        ids = np.asarray([7])
        emb.lookup(ids)
        # Mutating the sketch behind the layer's back must not leave a stale
        # plan: feature 7 becomes hot with an exclusive row.
        emb.sketch.insert(np.asarray([7]), np.asarray([10.0]))
        assert assign_row(emb, 7, 3)
        out = emb.lookup(ids)
        assert np.allclose(out[0], emb.hot_table[3])

    def test_lookup_results_unchanged_by_caching(self):
        emb = make_cafe()
        rng = np.random.default_rng(0)
        for _ in range(20):
            ids = rng.integers(0, N, size=(4, 3))
            grads = rng.normal(size=ids.shape + (DIM,)) * 0.1
            first = emb.lookup(ids)
            again = emb.lookup(ids)  # served from the cached plan
            assert np.array_equal(first, again)
            emb.apply_gradients(ids, grads)


@pytest.fixture
def scatters_built(monkeypatch):
    """Sizes of every ``ScatterPlan`` built through ``from_rows``."""
    built = []
    from_rows = ScatterPlan.from_rows.__func__

    def counting(cls, rows_per_entry):
        built.append(len(rows_per_entry))
        return from_rows(cls, rows_per_entry)

    monkeypatch.setattr(ScatterPlan, "from_rows", classmethod(counting))
    return built


class TestLookupStopsAtTheGather:
    """A plan built by ``lookup`` holds what a gather needs; the scatter (a
    stable sort over the destination rows) belongs to the first apply."""

    IDS = np.asarray([[1, 5, 9, 5], [2, 5, 1999, 1]])

    def make(self, method):
        return create_embedding(
            method, num_features=N, dim=DIM, compression_ratio=10.0, rng=np.random.default_rng(1)
        )

    @pytest.mark.parametrize("method", ["hash", "cafe", "cafe_ml"])
    def test_scatter_is_built_once_by_the_apply(self, method, scatters_built):
        emb = self.make(method)
        emb.lookup(self.IDS)
        plan = emb._cached_plan
        assert plan is not None and "scatter" not in plan.routes
        assert "scatter_rows" in plan.routes and scatters_built == []
        emb.apply_gradients(self.IDS, np.full(self.IDS.shape + (DIM,), 0.01))
        assert len(scatters_built) == 1
        assert isinstance(plan.routes["scatter"], ScatterPlan)  # memoised on the plan it used
        assert emb.plan_stats.as_dict() == {"hits": 1, "misses": 1, "reuse_rate": 0.5}

    def test_repeated_batch_reuses_the_memoised_scatter(self, scatters_built):
        emb = self.make("hash")
        grads = np.full(self.IDS.shape + (DIM,), 0.01)
        for _ in range(3):
            emb.lookup(self.IDS)
            emb.apply_gradients(self.IDS, grads)
        assert len(scatters_built) == 1 and emb.plan_stats.misses == 1

    @pytest.mark.parametrize("method", ["hash", "cafe", "cafe_ml"])
    def test_snapshot_and_repeated_lookups_never_build_one(self, method, scatters_built):
        num_shards = 2 if method == "cafe" else 1  # only CAFE shards
        store = ShardedEmbeddingStore.build(
            method, num_features=N, dim=DIM, num_shards=num_shards, compression_ratio=10.0, seed=3
        )
        store.lookup(self.IDS)
        store.apply_gradients(self.IDS, np.full(self.IDS.shape + (DIM,), 0.01))
        after_training = len(scatters_built)
        assert after_training == 1  # one shard, or one stack

        snapshot = store.snapshot()
        for _ in range(3):
            snapshot.lookup(self.IDS)
            store.lookup(self.IDS)
        assert len(scatters_built) == after_training


class TestFreeRowPool:
    def test_claim_matches_lifo_pop_order(self):
        pool = FreeRowPool(5)
        expected = [pool.pop(), pool.pop()]
        pool = FreeRowPool(5)
        assert pool.claim(2).tolist() == expected
        assert len(pool) == 3

    def test_claim_caps_at_available(self):
        pool = FreeRowPool(3)
        assert pool.claim(10).size == 3
        assert pool.claim(1).size == 0
        assert not pool

    def test_release_filters_sentinels(self):
        pool = FreeRowPool(np.empty(0, dtype=np.int64))
        released = pool.release(np.asarray([3, -1, 7, -1]))
        assert released == 2
        assert sorted(pool.rows.tolist()) == [3, 7]

    def test_pop_refuses_an_empty_pool(self):
        pool = FreeRowPool(1)
        assert pool.pop() == 0
        assert not pool and len(pool) == 0
        with pytest.raises(IndexError):
            pool.pop()

    def test_partition_rule_catches_double_free(self):
        pool = FreeRowPool(np.asarray([1, 2]))
        pool.release(np.asarray([2]))
        assert not rows_partition(pool.rows, np.asarray([0, 3]), num_rows=4)


class ReferenceHotSketch(HotSketch):
    """HotSketch with the seed's scalar miss-handling loop (the oracle)."""

    def _insert_misses(
        self, keys: np.ndarray, scores: np.ndarray, buckets: np.ndarray
    ) -> EvictionBatch:
        evicted_keys: list[int] = []
        evicted_payloads: list[int] = []
        for key, score, bucket in zip(keys, scores, buckets):
            bucket_keys = self.keys[bucket]
            empty = np.nonzero(bucket_keys == EMPTY_KEY)[0]
            if empty.size > 0:
                slot = int(empty[0])
                self.keys[bucket, slot] = key
                self.scores[bucket, slot] = score
                self.payloads[bucket, slot] = NO_PAYLOAD
                continue
            slot = int(np.argmin(self.scores[bucket]))
            old_key = int(self.keys[bucket, slot])
            old_payload = int(self.payloads[bucket, slot])
            if old_payload != NO_PAYLOAD:
                evicted_keys.append(old_key)
                evicted_payloads.append(old_payload)
            self.keys[bucket, slot] = key
            self.scores[bucket, slot] += score
            self.payloads[bucket, slot] = NO_PAYLOAD
        return EvictionBatch(
            np.asarray(evicted_keys, dtype=np.int64),
            np.asarray(evicted_payloads, dtype=np.int64),
        )


class TestVectorizedSketchParity:
    """The grouped-miss insert must match the scalar reference bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("num_buckets,slots", [(4, 2), (16, 4), (1, 3)])
    def test_state_matches_legacy_on_random_streams(self, seed, num_buckets, slots):
        kwargs = dict(num_buckets=num_buckets, slots_per_bucket=slots, seed=7)
        current = HotSketch(**kwargs)
        legacy = ReferenceHotSketch(**kwargs)
        rng = np.random.default_rng(seed)
        for _ in range(30):
            keys = rng.integers(0, 200, size=64)
            scores = rng.random(64) + 0.01
            ev_current = current.insert(keys, scores)
            ev_legacy = legacy.insert(keys, scores)
            assert np.array_equal(current.keys, legacy.keys)
            assert np.allclose(current.scores, legacy.scores)
            assert np.array_equal(current.payloads, legacy.payloads)
            assert sorted(ev_current.keys.tolist()) == sorted(ev_legacy.keys.tolist())
            assert sorted(ev_current.payloads.tolist()) == sorted(ev_legacy.payloads.tolist())

    def test_parity_with_payload_evictions(self):
        kwargs = dict(num_buckets=2, slots_per_bucket=2, seed=3)
        current, legacy = HotSketch(**kwargs), ReferenceHotSketch(**kwargs)
        rng = np.random.default_rng(5)
        for step in range(40):
            keys = rng.integers(0, 50, size=16)
            for sketch in (current, legacy):
                evictions = sketch.insert(keys, np.ones(16))
                assert evictions.keys.shape == evictions.payloads.shape
                # Attach payloads to every currently-recorded key so future
                # replacements must report them.
                recorded = sketch.keys[sketch.keys != EMPTY_KEY]
                for key in recorded.tolist():
                    set_payload(sketch, int(key), int(key) % 7)
            assert np.array_equal(current.keys, legacy.keys)
            assert np.array_equal(current.payloads, legacy.payloads)
