"""Tests for the HotSketch data structure."""

import numpy as np
import pytest

from repro.errors import SketchStateMismatchError
from repro.sketch.hotsketch import EMPTY_KEY, NO_PAYLOAD, HotSketch
from repro.utils.zipf import ZipfDistribution
from sketch_slots import payloads_of, set_payload


def make_sketch(**kwargs):
    defaults = dict(num_buckets=64, slots_per_bucket=4, seed=1)
    defaults.update(kwargs)
    return HotSketch(**defaults)


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HotSketch(num_buckets=0, slots_per_bucket=4, seed=0)
        with pytest.raises(ValueError):
            HotSketch(num_buckets=4, slots_per_bucket=0, seed=0)

    def test_initial_state(self):
        sketch = make_sketch()
        assert np.all(sketch.keys == EMPTY_KEY)
        assert np.all(sketch.scores == 0)
        assert np.all(sketch.payloads == NO_PAYLOAD)

    def test_memory_accounting(self):
        sketch = HotSketch(num_buckets=100, slots_per_bucket=4, seed=0)
        # 3 attributes per slot (key, score, pointer).
        assert sketch.memory_floats() == 100 * 4 * 3


class TestInsertQuery:
    def test_single_insert_and_query(self):
        sketch = make_sketch()
        sketch.insert(np.asarray([42]), np.asarray([3.0]))
        assert sketch.query(np.asarray([42]))[0] == pytest.approx(3.0)
        assert sketch.query(np.asarray([43]))[0] == 0.0

    def test_repeated_inserts_accumulate(self):
        sketch = make_sketch()
        for _ in range(5):
            sketch.insert(np.asarray([7]), np.asarray([2.0]))
        assert sketch.query(np.asarray([7]))[0] == pytest.approx(10.0)

    def test_batch_duplicates_aggregated(self):
        sketch = make_sketch()
        sketch.insert(np.asarray([5, 5, 5]), np.asarray([1.0, 2.0, 3.0]))
        assert sketch.query(np.asarray([5]))[0] == pytest.approx(6.0)

    def test_default_scores_are_one(self):
        sketch = make_sketch()
        sketch.insert(np.asarray([1, 2, 1]))
        assert sketch.query(np.asarray([1]))[0] == pytest.approx(2.0)

    def test_query_shape_preserved(self):
        sketch = make_sketch()
        sketch.insert(np.asarray([1, 2, 3]))
        out = sketch.query(np.asarray([[1, 2], [3, 4]]))
        assert out.shape == (2, 2)

    def test_empty_insert_is_noop(self):
        sketch = make_sketch()
        evictions = sketch.insert(np.asarray([], dtype=np.int64))
        assert evictions.keys.size == 0

    def test_mismatched_scores_rejected(self):
        sketch = make_sketch()
        with pytest.raises(ValueError):
            sketch.insert(np.asarray([1, 2]), np.asarray([1.0]))

    def test_overestimation_never_underestimates_hot(self):
        """SpaceSaving guarantees estimates are upper bounds for recorded keys."""
        sketch = HotSketch(num_buckets=8, slots_per_bucket=2, seed=0)
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 200, size=5000)
        true_counts = np.bincount(keys, minlength=200).astype(float)
        sketch.insert(keys)
        recorded_mask = sketch.keys != EMPTY_KEY
        for key, score in zip(sketch.keys[recorded_mask], sketch.scores[recorded_mask]):
            assert score >= true_counts[key] - 1e-9


class TestAggregateDuplicates:
    def test_sums_each_key_like_reduceat_over_a_stable_sort(self):
        keys = np.asarray([7, 2, 7, 7, 2, 9], dtype=np.int64)
        scores = np.asarray([1e16, 0.5, 1.0, -1e16, 0.25, 3.0])
        unique, totals = HotSketch.aggregate_duplicates(keys, scores)
        order = np.argsort(keys, kind="stable")
        assert unique.tolist() == [2, 7, 9]
        expected = np.add.reduceat(scores[order], np.asarray([0, 2, 5]))
        assert totals.tobytes() == expected.tobytes()


class TestEvictionAndReplacement:
    def test_full_bucket_replaces_minimum(self):
        sketch = HotSketch(num_buckets=1, slots_per_bucket=2, seed=0)
        sketch.insert(np.asarray([1]), np.asarray([5.0]))
        sketch.insert(np.asarray([2]), np.asarray([1.0]))
        # Bucket full; inserting key 3 must replace key 2 (the minimum).
        sketch.insert(np.asarray([3]), np.asarray([2.0]))
        assert sketch.query(np.asarray([2]))[0] == 0.0
        # SpaceSaving adds the new score on top of the evicted minimum.
        assert sketch.query(np.asarray([3]))[0] == pytest.approx(3.0)
        assert sketch.query(np.asarray([1]))[0] == pytest.approx(5.0)

    def test_eviction_reports_payloads(self):
        sketch = HotSketch(num_buckets=1, slots_per_bucket=1, seed=0)
        sketch.insert(np.asarray([10]), np.asarray([1.0]))
        assert set_payload(sketch, 10, 5)
        evictions = sketch.insert(np.asarray([11]), np.asarray([1.0]))
        assert evictions.keys.size == 1
        assert evictions.keys[0] == 10
        assert evictions.payloads[0] == 5

    def test_eviction_without_payload_not_reported(self):
        sketch = HotSketch(num_buckets=1, slots_per_bucket=1, seed=0)
        sketch.insert(np.asarray([10]), np.asarray([1.0]))
        evictions = sketch.insert(np.asarray([11]), np.asarray([1.0]))
        assert evictions.keys.size == 0

    def test_duplicate_missing_keys_in_one_batch_claim_one_slot(self):
        """Duplicates of an unrecorded key are aggregated into a single miss."""
        sketch = HotSketch(num_buckets=1, slots_per_bucket=4, seed=0)
        sketch.insert(np.asarray([9, 9, 9, 5, 5]), np.asarray([1.0, 2.0, 3.0, 1.0, 1.0]))
        occupied = (sketch.keys != EMPTY_KEY).sum()
        assert occupied == 2  # one slot per distinct key, not per occurrence
        assert sketch.query(np.asarray([9]))[0] == pytest.approx(6.0)
        assert sketch.query(np.asarray([5]))[0] == pytest.approx(2.0)

    def test_multiple_misses_into_same_full_bucket_are_sequential(self):
        """Misses sharing one full bucket replace minima one after another."""
        sketch = HotSketch(num_buckets=1, slots_per_bucket=2, seed=0)
        sketch.insert(np.asarray([1, 2]), np.asarray([10.0, 1.0]))
        assert set_payload(sketch, 1, 100)
        assert set_payload(sketch, 2, 200)
        # Keys 3 and 4 both miss into the (single, full) bucket.  3 replaces
        # the minimum (key 2, score 1 -> 1+s); 4 then replaces the new
        # minimum, whichever that is after 3's SpaceSaving over-estimate.
        evictions = sketch.insert(np.asarray([3, 4]), np.asarray([2.0, 2.0]))
        assert sorted(evictions.payloads.tolist()) == [200]  # key 1 survives
        assert sketch.query(np.asarray([1]))[0] == pytest.approx(10.0)
        assert sketch.query(np.asarray([2]))[0] == 0.0
        # Key 3 took 1+2=3, then key 4 displaced it at 3+2=5.
        assert sketch.query(np.asarray([3]))[0] == 0.0
        assert sketch.query(np.asarray([4]))[0] == pytest.approx(5.0)

    def test_eviction_reporting_is_order_independent(self):
        """Shuffling a batch changes nothing about which payloads are reported."""

        def run(order: np.ndarray) -> tuple[set, set]:
            sketch = HotSketch(num_buckets=2, slots_per_bucket=2, seed=1)
            base = np.arange(10, 18)
            sketch.insert(base, np.linspace(1, 3, base.size))
            for key in base.tolist():
                set_payload(sketch, key, key * 10)
            evictions = sketch.insert(order, np.full(order.size, 5.0))
            return set(evictions.keys.tolist()), set(evictions.payloads.tolist())

        batch = np.arange(30, 38)
        rng = np.random.default_rng(0)
        reference = run(batch)
        for _ in range(5):
            assert run(rng.permutation(batch)) == reference


class TestPayloads:
    def test_a_payload_stays_with_its_key_until_displaced(self):
        sketch = make_sketch()
        sketch.insert(np.asarray([3]), np.asarray([1.0]))
        assert payloads_of(sketch, [3, 999]).tolist() == [NO_PAYLOAD, NO_PAYLOAD]
        assert set_payload(sketch, 3, 17)
        sketch.insert(np.asarray([3, 4]), np.asarray([1.0, 1.0]))
        assert payloads_of(sketch, [3, 4]).tolist() == [17, NO_PAYLOAD]

    def test_set_get_clear(self):
        sketch = make_sketch()
        sketch.insert(np.asarray([3]), np.asarray([1.0]))
        assert payloads_of(sketch, [3])[0] == NO_PAYLOAD
        assert set_payload(sketch, 3, 17)
        assert payloads_of(sketch, [3])[0] == 17
        assert set_payload(sketch, 3, NO_PAYLOAD)
        assert payloads_of(sketch, [3])[0] == NO_PAYLOAD
        assert sketch.query(np.asarray([3]))[0] == 1.0  # the key keeps its slot

    def test_set_payload_missing_key(self):
        sketch = make_sketch()
        sketch.insert(np.asarray([3]), np.asarray([1.0]))
        assert not set_payload(sketch, 999, 1)
        assert np.all(sketch.payloads == NO_PAYLOAD)

    def test_get_payloads_for_absent_keys(self):
        sketch = make_sketch()
        out = payloads_of(sketch, [1, 2, 3])
        assert np.all(out == NO_PAYLOAD)


class TestDecayAndTopK:
    def test_decay_scales_scores(self):
        sketch = make_sketch()
        sketch.insert(np.asarray([1, 2]), np.asarray([8.0, 2.0]))
        sketch.apply_decay(0.5)
        assert sketch.query(np.asarray([1, 2])).tolist() == [4.0, 1.0]

    def test_decay_of_one_is_noop(self):
        sketch = make_sketch()
        sketch.insert(np.asarray([1, 2]), np.asarray([8.0, 0.1]))
        before = sketch.scores.copy()
        sketch.apply_decay(1.0)
        assert np.array_equal(sketch.scores, before)

    def test_top_k_ordering(self):
        sketch = make_sketch()
        sketch.insert(np.asarray([1, 2, 3]), np.asarray([5.0, 20.0, 10.0]))
        assert sketch.top_k(2).tolist() == [2, 3]

    def test_top_k_empty_sketch(self):
        sketch = make_sketch()
        assert sketch.top_k(3).size == 0


class TestAccuracyOnSkewedStream:
    @staticmethod
    def _recall(num_buckets: int, k: int = 128, zipf_exponent: float = 1.3) -> float:
        num_items = 20_000
        zipf = ZipfDistribution(num_items, zipf_exponent)
        stream = zipf.sample(300_000, rng=3)
        sketch = HotSketch(num_buckets=num_buckets, slots_per_bucket=4, seed=2)
        # Insert in chunks, as the training loop does batch by batch.
        for start in range(0, stream.size, 4096):
            sketch.insert(stream[start : start + 4096])
        counts = np.bincount(stream, minlength=num_items)
        true_top = set(np.argsort(counts)[::-1][:k].tolist())
        reported = set(sketch.top_k(k).tolist())
        return len(true_top & reported) / k

    def test_recall_of_hot_features(self):
        """With buckets = k and 4 slots (the paper's sizing rule) the sketch
        retains a clear majority of the true top-k on a Zipf stream."""
        assert self._recall(num_buckets=128) > 0.55

    def test_recall_improves_with_memory(self):
        """Doubling the number of buckets (memory) improves recall, matching
        the monotone trend of the paper's Figure 18(a)."""
        assert self._recall(num_buckets=512) > self._recall(num_buckets=64)

    def test_recall_high_with_ample_memory(self):
        assert self._recall(num_buckets=1024) > 0.9


class TestCheckpointing:
    def test_state_roundtrip(self):
        sketch = make_sketch()
        sketch.insert(np.arange(100), np.linspace(1, 5, 100))
        set_payload(sketch, int(sketch.keys[sketch.keys != EMPTY_KEY][0]), 3)
        state = sketch.state_dict()
        other = make_sketch()
        other.load_state_dict(state)
        assert np.array_equal(other.keys, sketch.keys)
        assert np.array_equal(other.scores, sketch.scores)
        assert np.array_equal(other.payloads, sketch.payloads)
        assert other.total_insertions == sketch.total_insertions

    def test_state_shape_mismatch(self):
        sketch = make_sketch()
        other = HotSketch(num_buckets=8, slots_per_bucket=2, seed=0)
        with pytest.raises(ValueError):
            other.load_state_dict(sketch.state_dict())

    @pytest.mark.parametrize("name", ["keys", "scores", "payloads"])
    def test_every_array_shape_is_checked_before_any_write(self, name):
        sketch = make_sketch()
        sketch.insert(np.arange(100), np.linspace(1, 5, 100))
        state = sketch.state_dict()
        state[name] = state[name][:, :2]  # one array from another geometry
        other = make_sketch()
        other.insert(np.arange(500, 520))
        before = other.state_dict()
        with pytest.raises(SketchStateMismatchError, match=name):
            other.load_state_dict(state)
        for key, value in before.items():
            assert np.array_equal(other.state_dict()[key], value), key

    def test_load_restores_in_place(self):
        # A stacked store's shard sketches are views into one allocation;
        # a restore must write through them, not rebind them.
        sketch = make_sketch()
        sketch.insert(np.arange(100), np.linspace(1, 5, 100))
        other = make_sketch()
        live = (other.keys, other.scores, other.payloads)
        other.load_state_dict(sketch.state_dict())
        assert all(a is b for a, b in zip(live, (other.keys, other.scores, other.payloads)))
        assert np.array_equal(other.scores, sketch.scores)

