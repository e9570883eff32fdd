"""Property-based tests (hypothesis) for HotSketch."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.hotsketch import EMPTY_KEY, NO_PAYLOAD, HotSketch

key_arrays = st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


class TestHotSketchProperties:
    @given(keys=key_arrays)
    @settings(max_examples=50, deadline=None)
    def test_total_score_conserved(self, keys):
        """SpaceSaving-style replacement never loses score mass: the sum of all
        slot scores equals the total inserted score."""
        sketch = HotSketch(num_buckets=8, slots_per_bucket=2, seed=0)
        sketch.insert(keys)
        assert np.isclose(sketch.scores.sum(), float(keys.size))

    @given(keys=key_arrays)
    @settings(max_examples=50, deadline=None)
    def test_recorded_keys_never_underestimated(self, keys):
        sketch = HotSketch(num_buckets=16, slots_per_bucket=4, seed=1)
        sketch.insert(keys)
        true_counts = np.bincount(keys, minlength=501).astype(float)
        mask = sketch.keys != EMPTY_KEY
        recorded = sketch.keys[mask]
        scores = sketch.scores[mask]
        assert np.all(scores >= true_counts[recorded] - 1e-9)

    @given(keys=key_arrays)
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded(self, keys):
        sketch = HotSketch(num_buckets=4, slots_per_bucket=4, seed=2)
        sketch.insert(keys)
        occupied = int((sketch.keys != EMPTY_KEY).sum())
        assert occupied <= min(np.unique(keys).size, 16)

    @given(keys=key_arrays, decay=st.floats(min_value=0.1, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_decay_scales_all_scores(self, keys, decay):
        sketch = HotSketch(num_buckets=8, slots_per_bucket=2, seed=3)
        sketch.insert(keys)
        before = sketch.scores.copy()
        sketch.apply_decay(decay)
        assert np.allclose(sketch.scores, before * decay)

    @given(keys=key_arrays)
    @settings(max_examples=30, deadline=None)
    def test_insert_order_of_single_batch_irrelevant(self, keys):
        """Within one insert call duplicates are pre-aggregated, so a permuted
        batch produces the same sketch state."""
        a = HotSketch(num_buckets=8, slots_per_bucket=2, seed=4)
        b = HotSketch(num_buckets=8, slots_per_bucket=2, seed=4)
        a.insert(keys)
        b.insert(np.random.default_rng(0).permutation(keys))
        assert np.isclose(a.scores.sum(), b.scores.sum())


    @given(keys=key_arrays, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=50, deadline=None)
    def test_aggregate_duplicates_matches_reduceat(self, keys, seed):
        """Each distinct key comes out once, ascending, with its scores summed
        the way ``np.add.reduceat`` sums them after a stable key sort."""
        scores = np.random.default_rng(seed).standard_normal(keys.size)
        unique, totals = HotSketch.aggregate_duplicates(keys, scores)
        order = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(np.r_[True, np.diff(keys[order]) != 0])
        assert np.array_equal(unique, np.unique(keys))
        assert totals.tobytes() == np.add.reduceat(scores[order], starts).tobytes()

    @given(keys=key_arrays, probe=key_arrays)
    @settings(max_examples=50, deadline=None)
    def test_locate_finds_exactly_the_recorded_keys(self, keys, probe):
        sketch = HotSketch(num_buckets=8, slots_per_bucket=2, seed=5)
        sketch.insert(keys)
        found, buckets, slots = sketch.locate(probe)
        recorded = set(sketch.keys[sketch.keys != EMPTY_KEY].tolist())
        assert found.tolist() == [key in recorded for key in probe.tolist()]
        assert np.array_equal(sketch.keys[buckets[found], slots[found]], probe[found])
        assert np.array_equal(sketch.query(probe) > 0, found)

    @given(first=key_arrays, second=key_arrays)
    @settings(max_examples=50, deadline=None)
    def test_payloads_follow_their_keys(self, first, second):
        """A payload stays on its key's slot until SpaceSaving displaces the
        key, and the displacement reports exactly that payload."""
        sketch = HotSketch(num_buckets=4, slots_per_bucket=2, seed=6)
        sketch.insert(first)
        occupied = sketch.keys != EMPTY_KEY
        sketch.payloads[occupied] = sketch.keys[occupied]
        before = set(sketch.keys[occupied].tolist())
        evictions = sketch.insert(second)
        assert np.array_equal(evictions.keys, evictions.payloads)
        after = sketch.keys != EMPTY_KEY
        kept = np.isin(sketch.keys, list(before)) & after
        assert np.array_equal(sketch.payloads[kept], sketch.keys[kept])
        assert np.all(sketch.payloads[after & ~kept] == NO_PAYLOAD)
        assert set(evictions.keys.tolist()) == before - set(sketch.keys[after].tolist())
