"""Tests for the numpy update primitives and ScatterPlan."""

import numpy as np
import pytest

from repro.embeddings.plan import ScatterPlan
from repro.kernels.ops import (
    scatter_apply,
    segment_boundaries,
    segment_sum,
    sketch_insert,
    stable_order,
)


# --------------------------------------------------------------------------- #
# The three update primitives
# --------------------------------------------------------------------------- #
class TestNumpyBackend:
    def test_segment_sum_matches_manual(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((12, 4)).astype(np.float32)
        rows = np.asarray([3, 1, 3, 0, 1, 3, 2, 0, 0, 2, 1, 3])
        plan = ScatterPlan.from_rows(rows)
        summed = segment_sum(values, plan.perm, plan.starts)
        assert summed.shape == (len(plan), 4)
        for i, row in enumerate(plan.rows):
            # reduceat sums pairwise, so compare to a float64 manual sum with
            # tolerance rather than expecting a sequential float32 bit-match.
            expected = values[rows == row].sum(axis=0, dtype=np.float64)
            np.testing.assert_allclose(summed[i], expected, rtol=1e-6)

    def test_segment_sum_empty(self):
        plan = ScatterPlan.from_rows(np.empty(0, dtype=np.int64))
        out = segment_sum(np.empty((0, 4), dtype=np.float32), plan.perm, plan.starts)
        assert out.shape == (0, 4)

    def test_scatter_apply_sgd(self):
        table = np.ones((5, 3), dtype=np.float32)
        summed = np.full((2, 3), 2.0, dtype=np.float32)
        scatter_apply(table, np.asarray([1, 3]), summed, lr=0.5)
        np.testing.assert_array_equal(table[[1, 3]], np.zeros((2, 3), dtype=np.float32))
        np.testing.assert_array_equal(table[[0, 2, 4]], np.ones((3, 3), dtype=np.float32))

    def test_scatter_apply_adagrad(self):
        table = np.ones((4, 2), dtype=np.float32)
        accumulator = np.zeros(4, dtype=np.float32)
        summed = np.asarray([[3.0, 4.0]], dtype=np.float32)
        scatter_apply(
            table, np.asarray([2]), summed, lr=0.1, accumulator=accumulator, eps=1e-8
        )
        expected_acc = (9.0 + 16.0) / 2
        assert accumulator[2] == pytest.approx(expected_acc)
        scale = 0.1 / (np.sqrt(np.float32(expected_acc)) + np.float32(1e-8))
        np.testing.assert_allclose(table[2], 1.0 - scale * summed[0], rtol=1e-6)

    def test_sketch_insert(self):
        scores = np.zeros(8)
        sketch_insert(scores, np.asarray([1, 5, 7]), np.asarray([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(scores[[1, 5, 7]], [1.0, 2.0, 3.0])
        assert scores.sum() == 6.0


# --------------------------------------------------------------------------- #
# ScatterPlan invariants
# --------------------------------------------------------------------------- #
class TestScatterPlan:
    def test_duplicate_rows_collapse_to_one_segment_in_batch_order(self):
        rows = np.asarray([7, 2, 7, 7, 2])
        plan = ScatterPlan.from_rows(rows)
        assert len(plan) == 2
        np.testing.assert_array_equal(plan.rows, [2, 7])
        np.testing.assert_array_equal(plan.starts, [0, 2])
        # perm groups by row and keeps batch order within each group.
        np.testing.assert_array_equal(plan.perm, [1, 4, 0, 2, 3])

    def test_empty_batch(self):
        plan = ScatterPlan.from_rows(np.empty(0, dtype=np.int64))
        assert len(plan) == 0
        assert plan.perm.shape == (0,)
        assert plan.starts.shape == (0,)
        assert plan.rows.shape == (0,)

    def test_all_positions_prefiltered_away(self):
        # An all-miss batch: the caller filtered every position out before
        # building the scatter; the update must treat it as a no-op.
        rows = np.asarray([5, 6, 7])[np.zeros(0, dtype=np.int64)]
        plan = ScatterPlan.from_rows(rows)
        assert len(plan) == 0

    def test_perm_is_a_permutation_and_segments_cover(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 50, size=333)
        plan = ScatterPlan.from_rows(rows)
        np.testing.assert_array_equal(np.sort(plan.perm), np.arange(333))
        # Segment r covers perm[starts[r]:starts[r+1]] and every covered
        # position maps to rows[r].
        bounds = np.append(plan.starts, 333)
        for r in range(len(plan)):
            seg = plan.perm[bounds[r]: bounds[r + 1]]
            assert (rows[seg] == plan.rows[r]).all()

    def test_stable_order_matches_stable_argsort(self):
        rng = np.random.default_rng(4)
        for n in (0, 1, 2, 1000):
            keys = rng.integers(0, 97, size=n)
            np.testing.assert_array_equal(
                stable_order(keys), np.argsort(keys, kind="stable")
            )
        # Negative keys and huge keys take the fallback path.
        keys = rng.integers(-50, 50, size=256)
        np.testing.assert_array_equal(stable_order(keys), np.argsort(keys, kind="stable"))
        keys = rng.integers(0, 2**62, size=256)
        np.testing.assert_array_equal(stable_order(keys), np.argsort(keys, kind="stable"))

    def test_segment_boundaries(self):
        uids, starts = segment_boundaries(np.asarray([2, 2, 5, 9, 9, 9]))
        np.testing.assert_array_equal(uids, [2, 5, 9])
        np.testing.assert_array_equal(starts, [0, 2, 3])
        uids, starts = segment_boundaries(np.empty(0, dtype=np.int64))
        assert uids.shape == (0,) and starts.shape == (0,)
