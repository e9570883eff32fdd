"""Tests for the numpy update primitives and ScatterPlan."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings.plan import ScatterPlan
from repro.kernels import ops
from repro.kernels.ops import (
    SegmentSum,
    scatter_apply,
    segment_boundaries,
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
        summed = SegmentSum(plan.perm, plan.starts)(values)
        assert summed.shape == (len(plan), 4)
        expected = np.add.reduceat(values[plan.perm], plan.starts, axis=0)
        assert summed.dtype == expected.dtype
        assert summed.tobytes() == expected.tobytes()
        for i, row in enumerate(plan.rows):
            np.testing.assert_allclose(
                summed[i], values[rows == row].sum(axis=0, dtype=np.float64), rtol=1e-6
            )

    def test_segment_sum_empty(self):
        plan = ScatterPlan.from_rows(np.empty(0, dtype=np.int64))
        out = SegmentSum(plan.perm, plan.starts)(np.empty((0, 4), dtype=np.float32))
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
# SegmentSum is np.add.reduceat, byte for byte
# --------------------------------------------------------------------------- #
#: Run lengths on both sides of every class boundary: the gather (1), the
#: sequential fold (2-8), numpy's eight lanes (9-129) and its split (130+).
RUN_LENGTHS = [1, 2, 3, 7, 8, 9, 10, 16, 17, 64, 128, 129, 130, 257, 600]
#: The shipped crossover, every class leaving reduceat, none leaving it.
CROSSOVERS = [ops.SEGMENT_SUM_CROSSOVER, 0, 2**62]


def reduceat_reference(values, perm, starts):
    return np.add.reduceat(values[perm], starts, axis=0)


@given(
    lengths=st.lists(st.sampled_from(RUN_LENGTHS), min_size=1, max_size=24),
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float16, np.float32, np.float64]),
    width=st.sampled_from([None, 1, 16]),
    crossover=st.sampled_from(CROSSOVERS),
)
@settings(max_examples=80, deadline=None)
def test_segment_sum_is_reduceat_bytes(lengths, seed, dtype, width, crossover):
    """Not skipped on another numpy: a change to numpy's pairwise sum is
    exactly what this must catch."""
    rng = np.random.default_rng(seed)
    keys = np.repeat(np.arange(len(lengths)), lengths)
    rng.shuffle(keys)
    plan = ScatterPlan.from_rows(keys)
    shape = (keys.shape[0],) if width is None else (keys.shape[0], width)
    # Magnitudes spread over 2^±6, so another association rounds differently
    # (a wider spread lets the largest terms absorb the difference), and
    # signed zeros, whose sum's sign depends on where the sum starts.
    values = rng.standard_normal(shape) * np.exp2(rng.integers(-6, 6, size=shape))
    values = values.astype(dtype)
    values[rng.random(shape) < 0.1] = 0.0
    values[rng.random(shape) < 0.1] = -0.0
    expected = reduceat_reference(values, plan.perm, plan.starts)
    with mock.patch.object(ops, "SEGMENT_SUM_CROSSOVER", crossover):
        summed = ops.SegmentSum(plan.perm, plan.starts)
        for _ in range(2):  # a second call reuses the built plan
            out = summed(values)
            assert out.dtype == expected.dtype and out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()


def test_segment_sum_all_zero_runs_keep_reduceats_signs():
    """A run of -0.0 sums to -0.0 and a run mixing signs to +0.0, in every class."""
    lengths = [1, 2, 9, 130]
    perm = np.arange(sum(lengths))
    starts = np.cumsum([0] + lengths[:-1])
    values = np.full((perm.shape[0], 3), -0.0, dtype=np.float32)
    values[:, 1] = 0.0
    values[starts + np.asarray(lengths) // 2, 2] = 0.0
    expected = reduceat_reference(values, perm, starts)
    for crossover in CROSSOVERS:
        with mock.patch.object(ops, "SEGMENT_SUM_CROSSOVER", crossover):
            out = ops.SegmentSum(perm, starts)(values)
        assert out.tobytes() == expected.tobytes()
        assert np.signbit(out).tolist() == [[True, False, False]] * 4


def test_float16_sums_are_reduceats_where_float32_would_fold():
    """numpy's float16 reduce adds in float32 and rounds once per run, which
    a fold in float16 does not: a float16 sum never folds."""
    rng = np.random.default_rng(11)
    lengths = np.repeat([1, 3, 7, 12, 40], [300, 600, 600, 400, 200])
    keys = np.repeat(np.arange(lengths.shape[0]), lengths)
    rng.shuffle(keys)
    plan = ScatterPlan.from_rows(keys)
    # As float32, both the 2-8-row (1200 runs) and the 9-129-row class (600)
    # would fold at width 16.
    assert 600 * 16 >= ops.SEGMENT_SUM_CROSSOVER
    for crossover in CROSSOVERS:
        with mock.patch.object(ops, "SEGMENT_SUM_CROSSOVER", crossover):
            values = rng.standard_normal((keys.shape[0], 16)).astype(np.float16)
            out = ops.SegmentSum(plan.perm, plan.starts)(values)
            assert out.dtype == np.float16
            assert out.tobytes() == reduceat_reference(values, plan.perm, plan.starts).tobytes()


def test_one_plan_serves_widths_on_both_sides_of_the_crossover():
    """The norms (width 1) and gradients (width 16) of a batch share a plan;
    which classes fold is decided per call."""
    rng = np.random.default_rng(5)
    lengths = np.repeat([1, 3, 12], [200, 600, 100])
    keys = np.repeat(np.arange(lengths.shape[0]), lengths)
    rng.shuffle(keys)
    plan = ScatterPlan.from_rows(keys)
    # Width 1: nothing reaches the crossover; width 16: the 3-row runs fold.
    assert len(plan) < ops.SEGMENT_SUM_CROSSOVER <= 600 * 16
    assert 200 * 16 < ops.SEGMENT_SUM_CROSSOVER and 100 * 16 < ops.SEGMENT_SUM_CROSSOVER
    summed = ops.SegmentSum(plan.perm, plan.starts)
    for shape in [(keys.shape[0],), (keys.shape[0], 16), (keys.shape[0],)]:
        values = rng.standard_normal(shape).astype(np.float32)
        out = summed(values)
        assert out.tobytes() == reduceat_reference(values, plan.perm, plan.starts).tobytes()


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
