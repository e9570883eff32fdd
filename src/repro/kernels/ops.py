"""The numpy primitives the embedding train step is built from.

Index ops for the plan builder (plan construction is index bookkeeping
dominated by one sort, which :func:`stable_sort` makes cheap with the
composite-key trick below) and the three update primitives every
table-backed embedding applies its gradients through: :class:`SegmentSum`,
:func:`scatter_apply` and :func:`sketch_insert`.  Each defines bit-exactness
for the step: the segment sum is ``np.add.reduceat``'s association
reproduced class by class (the only ``reduceat`` in ``src/``), the scatters
are fancy-index arithmetic.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np


def stable_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, sorted_keys)``: ``keys`` ascending, ties kept in input order.

    A stable argsort (timsort/mergesort) on int64 keys is ~3.5x slower than
    quicksort on the same data, but quicksort is unstable.  Packing the key
    and its position into one composite int64 — ``(key << shift) | position``
    with ``shift = ceil(log2(n))`` — makes every composite unique, so an
    unstable sort of the composites *is* a stable sort of the keys, at
    quicksort speed; and because the composite carries both halves, one
    in-place value sort yields the permutation (low bits) and the sorted
    keys (high bits) without an argsort or a gather.  Falls back to
    ``kind="stable"`` when the composite would overflow int64 (keys wider
    than ``62 - shift`` bits) or a key is negative.
    """
    n = keys.shape[0]
    if n <= 1:
        return np.arange(n, dtype=np.int64), keys.astype(np.int64)
    shift = int(n - 1).bit_length()
    if int(keys.min()) < 0 or int(keys.max()).bit_length() + shift > 62:
        order = np.argsort(keys, kind="stable").astype(np.int64, copy=False)
        return order, keys[order]
    composite = keys.astype(np.int64, copy=False) << shift
    composite |= np.arange(n, dtype=np.int64)
    composite.sort()
    return composite & ((1 << shift) - 1), composite >> shift


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Permutation sorting ``keys`` ascending, ties kept in input order."""
    return stable_sort(keys)[0]


def segment_boundaries(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unique_keys, starts)`` of the runs in an already-sorted key array.

    ``starts[i]`` is the first position of run ``i``; ``unique_keys[i]`` its
    key.  Both are empty for an empty input.
    """
    n = sorted_keys.shape[0]
    if n == 0:
        return sorted_keys[:0], np.empty(0, dtype=np.int64)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    return sorted_keys[starts], starts


def run_lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """Length of each run given its first position and the total length ``n``.

    Slice subtraction; ``np.diff(starts, append=n)`` computes the same array
    but goes through numpy's Python-level ``broadcast_to`` wrapper, which
    costs more than the arithmetic at the sizes the plan builder sees.
    """
    lengths = np.empty_like(starts)
    if starts.shape[0]:
        np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
        lengths[-1] = n - starts[-1]
    return lengths


#: The runs × row width, in floats, from which a sum of :class:`SegmentSum`
#: gathers its singletons apart, and a folding run class (2-8 rows, 9-129
#: rows) leaves ``np.add.reduceat``.  reduceat costs one inner-loop call per
#: (run × column); the plan and a fold cost a fixed few dozen numpy calls,
#: paid per batch since a plan is built per batch.  Measured on the segment
#: sums of captured b128 and b2048 train steps, 2-vCPU x86 host, numpy
#: 2.4.6 (docs/benchmarks.md, "One exact segment sum").
SEGMENT_SUM_CROSSOVER = 8192

#: The dtypes whose reduceat the folds reproduce: numpy adds them in their
#: own precision.  float16's reduce loop adds in float32 and rounds once per
#: run, so any other dtype sums through reduceat.
_FOLD_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
#: numpy's pairwise sum adds fewer than this many values in sequence
#: (``@TYPE@_pairwise_sum``'s ``n < 8`` branch) ...
_LANES = 8
#: ... and up to this many in eight interleaved lanes; beyond, it splits.
_BLOCK = 128


class SegmentSum:
    """``np.add.reduceat(values[perm], starts, axis=0)``, byte for byte.

    reduceat sums a run of rows ``r0, r1, ..., rk`` as ``r0 + s`` with ``s``
    numpy's pairwise sum of ``r1 .. rk`` (one inner-loop call per run and
    column): below 8 rows ``s`` is the sequential ``((r1 + r2) + r3) + ...``;
    from 8 to 128 rows it is eight lanes ``l[j] = r[1 + j] + r[9 + j] + ...``
    combined as ``((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))``, the
    leftover rows added in sequence; beyond that it splits in two.  This plan
    reproduces those additions, in that order, one run-length class at a
    time and vectorized across the runs of the class:

    * every run starts from a gather of its ``r0``, so a run of one row
      costs nothing more (a sum whose runs × row width is below
      :data:`SEGMENT_SUM_CROSSOVER` is one plain ``np.add.reduceat``);
    * runs of 2-8 rows fold the rest in ≤ 7 steps over runs sorted by length,
      each step a prefix of the previous one;
    * runs of 9-129 rows accumulate the eight lanes block by block (runs
      sorted by block count), reduce them as a tree, then add the leftovers
      (runs re-sorted by leftover count);
    * longer runs, a class whose runs × row width is below
      :data:`SEGMENT_SUM_CROSSOVER`, and every run of a dtype other than
      float32 / float64 go through one ``np.add.reduceat`` on just those runs.

    Each class gathers its rows in one ``np.take``.  Every index array is
    built on first use, so a plan nobody sums with costs nothing.  One plan
    serves any ``values`` with ``perm.shape[0]`` rows; which classes fold is
    decided per call from the dtype and row width.
    """

    def __init__(self, perm: np.ndarray, starts: np.ndarray):
        self.perm = perm
        self.starts = starts
        self._reduceat_plans: dict[tuple[bool, bool], tuple | None] = {}

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """One summed row per run, ``(0, ...)``-shaped for no runs."""
        width = math.prod(values.shape[1:])
        if self.starts.shape[0] * width < SEGMENT_SUM_CROSSOVER:
            # Fewer reduceat inner-loop calls than any plan saves.
            return np.add.reduceat(np.take(values, self.perm, axis=0), self.starts, axis=0)
        short_folds, lanes_fold = self._folds(values.dtype, width)
        out = np.take(values, self._first, axis=0)
        if short_folds:
            out[self._short_plan[0]] += self._fold_short(values)
        if lanes_fold:
            out[self._lane_plan[0]] += self._fold_lanes(values)
        rest = self._reduceat_plan(short_folds, lanes_fold)
        if rest is not None:
            runs, rows, local_starts = rest
            out[runs] = np.add.reduceat(np.take(values, rows, axis=0), local_starts, axis=0)
        return out

    def _folds(self, dtype: np.dtype, width: int) -> tuple[bool, bool]:
        """Whether the 2-8-row and the 9-129-row classes fold: a float32 /
        float64 sum whose class runs × row width reach the crossover."""
        if dtype not in _FOLD_DTYPES:
            return False, False
        if self._multi_count * width < SEGMENT_SUM_CROSSOVER:
            return False, False  # no class can: skip the histogram
        short, laned = (
            0 < size and size * width >= SEGMENT_SUM_CROSSOVER for size in self._class_sizes
        )
        return short, laned

    @cached_property
    def _first(self) -> np.ndarray:
        return self.perm[self.starts]

    @cached_property
    def _lengths(self) -> np.ndarray:
        return run_lengths(self.starts, self.perm.shape[0])

    @cached_property
    def _multi(self) -> np.ndarray:
        return self._lengths > 1

    @cached_property
    def _multi_count(self) -> int:
        return int(np.count_nonzero(self._multi))

    @cached_property
    def _class_sizes(self) -> list[int]:
        """Runs of 2-8 rows and of 9-129 rows."""
        histogram = np.bincount(self._lengths, minlength=_BLOCK + 2)[: _BLOCK + 2]
        return np.add.reduceat(histogram, [2, _LANES + 1]).tolist()

    def _reduceat_plan(self, short_folds: bool, lanes_fold: bool):
        """``(runs, rows, local_starts)`` of one reduceat over every run of
        two or more rows whose class does not fold, ``None`` if there is none."""
        key = (short_folds, lanes_fold)
        if key not in self._reduceat_plans:
            lengths = self._lengths
            included = lengths > _LANES if short_folds else self._multi
            if lanes_fold:
                included = included & ((lengths <= _LANES) | (lengths > _BLOCK + 1))
            runs = np.flatnonzero(included)
            plan = None
            if runs.shape[0]:
                rows = self.perm[np.repeat(included, lengths)]
                run_rows = lengths[runs]
                plan = (runs, rows, np.cumsum(run_rows) - run_rows)
            self._reduceat_plans[key] = plan
        return self._reduceat_plans[key]

    @cached_property
    def _short_plan(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The 2-8-row runs longest first, row ``step`` of every run longer
        than ``step`` step by step, and how many runs each step covers."""
        lengths = self._lengths
        runs = np.flatnonzero((lengths > 1) & (lengths <= _LANES))
        rest = lengths[runs] - 1
        # uint8 keys: numpy's stable argsort is a radix sort on them.
        order = np.argsort((_LANES - rest).astype(np.uint8), kind="stable")
        runs, rest = runs[order], rest[order]
        counts = _longer_than(rest)
        rows = self.perm[_step_positions(self.starts[runs] + 1, counts, 1)]
        return runs, rows, counts.tolist()

    def _fold_short(self, values: np.ndarray) -> np.ndarray:
        """``((r1 + r2) + r3) + ...`` per 2-8-row run, in class order."""
        _, rows, counts = self._short_plan
        gathered = np.take(values, rows, axis=0)
        total = gathered[: counts[0]]
        _fold_prefixes(total, gathered, counts[0], counts[1:])
        return total

    @cached_property
    def _lane_plan(self):
        """The 9-129-row runs by block count, most first; their rows as
        lane-major ``(8, runs)`` blocks, each over a prefix of those runs,
        then the leftover rows, each step over a prefix of the runs
        re-sorted by leftover count (``by_tail``)."""
        lengths = self._lengths
        runs = np.flatnonzero((lengths > _LANES) & (lengths <= _BLOCK + 1))
        rest = lengths[runs] - 1
        blocks = rest // _LANES
        order = np.argsort((_BLOCK // _LANES - blocks).astype(np.uint8), kind="stable")
        runs, rest, blocks = runs[order], rest[order], blocks[order]
        first = self.starts[runs] + 1
        tail = rest - blocks * _LANES
        by_tail = np.argsort((_LANES - tail).astype(np.uint8), kind="stable")
        block_counts, tail_counts = _longer_than(blocks), _longer_than(tail)
        positions = np.concatenate([
            _step_positions(first, block_counts, _LANES),
            _step_positions((first + blocks * _LANES)[by_tail], tail_counts, 1),
        ])
        return runs, self.perm[positions], block_counts.tolist(), by_tail, tail_counts.tolist()

    def _fold_lanes(self, values: np.ndarray) -> np.ndarray:
        """numpy's eight-lane pairwise sum of ``r1 ..`` per 9-129-row run,
        in class order."""
        _, rows, block_counts, by_tail, tail_counts = self._lane_plan
        gathered = np.take(values, rows, axis=0)
        row_shape = values.shape[1:]
        # Lane-major, so every lane and every tree operand is contiguous.
        offset = _LANES * block_counts[0]
        lanes = gathered[:offset].reshape((_LANES, block_counts[0]) + row_shape)
        for count in block_counts[1:]:
            head = lanes[:, :count]
            head += gathered[offset : offset + _LANES * count].reshape((_LANES, count) + row_shape)
            offset += _LANES * count
        pairs = lanes[0::2] + lanes[1::2]
        quads = pairs[0::2] + pairs[1::2]
        total = quads[0] + quads[1]
        if tail_counts:
            ordered = total[by_tail]
            _fold_prefixes(ordered, gathered, offset, tail_counts)
            total[by_tail] = ordered
        return total


def _longer_than(counts: np.ndarray) -> np.ndarray:
    """``[number of counts > step for step in range(max(counts))]``."""
    return np.cumsum(np.bincount(counts)[::-1])[::-1][1:]


def _step_positions(base: np.ndarray, counts: np.ndarray, width: int) -> np.ndarray:
    """``base[run] + step * width + lane`` for each step, then each lane in
    ``range(width)``, then each run below ``counts[step]``, flattened."""
    sizes = counts * width
    step = np.repeat(np.arange(counts.shape[0]), sizes)
    within = np.arange(step.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    lane, run = np.divmod(within, np.repeat(counts, sizes))
    return base[run] + step * width + lane


def _fold_prefixes(total: np.ndarray, gathered: np.ndarray, offset: int, counts: list[int]) -> None:
    """``total[:count] +=`` the next ``count`` rows of ``gathered`` from
    ``offset`` on, for each count in turn."""
    for count in counts:
        head = total[:count]
        head += gathered[offset : offset + count]
        offset += count


def scatter_apply(
    table: np.ndarray,
    rows: np.ndarray,
    summed: np.ndarray,
    lr: float,
    accumulator: np.ndarray | None = None,
    eps: float = 0.0,
) -> None:
    """``table[rows] -= lr * summed`` in place over unique ``rows``.

    With an ``accumulator`` (one scalar per table row) this is the row-wise
    Adagrad step: the accumulator gains the mean squared gradient of each
    row and the step is scaled by ``lr / (sqrt(accumulator) + eps)``.
    """
    if rows.shape[0] == 0:
        return
    if accumulator is None:
        table[rows] -= lr * summed
        return
    accumulator[rows] += (summed**2).mean(axis=1)
    scale = lr / (np.sqrt(accumulator[rows]) + eps)
    table[rows] -= scale[:, None] * summed


def sketch_insert(scores: np.ndarray, slots: np.ndarray, add: np.ndarray) -> None:
    """``scores[slots] += add`` in place over unique flat ``slots``."""
    scores[slots] += add
