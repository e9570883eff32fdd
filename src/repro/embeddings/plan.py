"""Unique batches and routing plans: one step's index work, made explicit.

Every decision a backend makes for a lookup — owning shard, sketch slot,
exclusive row or hashed shared row — is a pure function of the feature *id*,
so nothing below the outermost store needs the position axis.  A
:class:`UniqueBatch` collapses a batch onto its sorted unique ids with one
stable sort; the generic ``lookup`` / ``apply_gradients`` wrapper in
:mod:`repro.embeddings.base` touches the position axis exactly three times
per step (that sort, one row broadcast, one segment sum each for gradients
and gradient norms) and hands backends ``(uids, ...)`` only.

A :class:`RoutingPlan` captures a backend's mapping of those unique ids to
storage locations — hash-table rows, quotient/remainder pairs, sketch slots,
exclusive-row pointers.  The layer caches the plan of the most recent batch
and ``apply_unique`` consumes the one ``lookup_unique`` built, so the
SplitMix64 hashing and slot location run once per step.  Behind a store the
cache is the store's, whatever its shard count.

Plans are invalidated by a *routing token*: any mutation that can change how
ids route (sketch insertion, migration, row reallocation, checkpoint load)
bumps the owning layer's token, and a cached plan is only reused while its
token matches.  Stateless backends (hash, Q-R, MDE) never bump the token, so
their plans stay valid for repeated batches.

The module also provides :class:`FreeRowPool`, an array-backed free-list for
exclusive embedding rows that supports batched claim/release without
Python-level per-row iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import IdOutOfRangeError
from repro.kernels.ops import SegmentSum, run_lengths, segment_boundaries, stable_sort


def check_id_range(low: int, high: int, num_features: int) -> None:
    """Raise unless the closed id range ``[low, high]`` fits ``[0, num_features)``."""
    if low < 0 or high >= num_features:
        raise IdOutOfRangeError(
            f"feature ids must lie in [0, {num_features}), got range [{low}, {high}]"
        )


def gradient_norms(grads: np.ndarray) -> np.ndarray:
    """L2 norm of every row of ``(k, dim)`` gradients — the per-lookup
    importance value HotSketch and AdaEmbed accumulate.

    The squares are summed and rooted in the gradients' own dtype (float32
    on a default store); only the roots are widened to float64.  The golden
    digests pin those bits, so this is not computed in float64.
    """
    return np.sqrt(np.einsum("ij,ij->i", grads, grads)).astype(np.float64)


@dataclass
class UniqueBatch:
    """One id batch collapsed onto its sorted unique ids.

    Attributes
    ----------
    flat_ids, ids_shape:
        Private copy of the flattened batch and its original shape (what
        :meth:`matches` compares a later batch against).
    uids:
        ``(U,)`` distinct ids, ascending.
    order:
        ``(n,)`` stable permutation sorting the batch by id, so each id's
        positions are adjacent and in batch order.
    starts:
        ``(U,)`` first position of each id's run in ``order``.
    inverse:
        ``(n,)`` index into ``uids`` per batch position
        (``uids[inverse] == flat_ids``).
    """

    flat_ids: np.ndarray
    ids_shape: tuple[int, ...]
    uids: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    inverse: np.ndarray
    #: Built by the first :meth:`sum_per_id` (lookup-only batches never pay).
    _segments: SegmentSum | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return int(self.flat_ids.shape[0])

    @classmethod
    def build(cls, ids: np.ndarray, num_features: int) -> "UniqueBatch":
        """Sort an int64 id batch once; the id range check reads off the ends."""
        flat = ids.reshape(-1)
        n = flat.shape[0]
        if n == 0:
            return cls(flat, ids.shape, flat, flat, flat, flat)
        order, sorted_ids = stable_sort(flat)
        check_id_range(int(sorted_ids[0]), int(sorted_ids[-1]), num_features)
        uids, starts = segment_boundaries(sorted_ids)
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.repeat(np.arange(starts.shape[0]), run_lengths(starts, n))
        return cls(flat.copy(), ids.shape, uids, order, starts, inverse)

    def matches(self, ids: np.ndarray) -> bool:
        """True when ``ids`` is exactly the batch this was built from."""
        return self.ids_shape == ids.shape and np.array_equal(self.flat_ids, ids.reshape(-1))

    def counts(self) -> np.ndarray:
        """``(U,)`` number of batch positions holding each id."""
        return run_lengths(self.starts, len(self))

    def sum_per_id(self, per_position: np.ndarray) -> np.ndarray:
        """Sum a ``(n, ...)`` per-position array over each id's positions.

        The association is ``np.add.reduceat``'s over each id's rows taken
        in batch order ``r0, r1, ...``, and it is part of the bit-exactness
        contract (the golden digests depend on it): the first row plus the
        sum of the rest, ``r0 + (((r1 + r2) + r3) + ...)``, while the rest is
        at most 7 rows; from 8 rows on the rest is summed numpy-pairwise
        (eight interleaved accumulators combined as a tree, leftovers added
        last).  It is *not* the left-to-right ``((r0 + r1) + r2) + ...``.
        :class:`~repro.kernels.ops.SegmentSum` computes it; the gradient
        and gradient-norm sums of a step share one plan.
        """
        if self._segments is None:
            self._segments = SegmentSum(self.order, self.starts)
        return self._segments(per_position)


@dataclass
class ScatterPlan:
    """Fully-resolved scatter of one batch's summed gradients into table rows.

    Built at most once per routing plan, by the first ``apply_unique`` that
    consumes it (:meth:`RoutingPlan.scatter`): a segment sum (:meth:`sum`) over
    ``perm``/``starts`` collapses the per-id gradient sums into one row per
    unique destination (distinct ids sharing a hashed row), and a single
    scatter applies them to ``rows``.

    Attributes
    ----------
    perm:
        ``(n,)`` int64 permutation of scatter entries, ordered so every
        destination row's contributions are adjacent.  Within a segment the
        order is entry order (ascending id): the summation order, and so
        the bits of every update, are fixed by the ids alone.
    starts:
        ``(k,)`` int64 first position of each segment in ``perm``.
    rows:
        ``(k,)`` int64 unique destination row per segment, parallel to
        ``starts``.
    """

    perm: np.ndarray
    starts: np.ndarray
    rows: np.ndarray
    #: Built by the first :meth:`sum`.
    _segments: SegmentSum | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def sum(self, values: np.ndarray) -> np.ndarray:
        """``(k, ...)`` sum of ``values[perm]`` per destination row."""
        if self._segments is None:
            self._segments = SegmentSum(self.perm, self.starts)
        return self._segments(values)

    @classmethod
    def from_rows(cls, rows_per_entry: np.ndarray) -> "ScatterPlan":
        """Build the scatter for one destination row per entry.

        Handles the degenerate cases the update must survive: no entries
        (empty scatter), entries sharing a row (they collapse into one
        segment, entry order preserved), and all-distinct rows (every
        segment has length one).
        """
        rows_per_entry = np.asarray(rows_per_entry, dtype=np.int64).reshape(-1)
        perm, sorted_rows = stable_sort(rows_per_entry)
        rows, starts = segment_boundaries(sorted_rows)
        return cls(perm=perm, starts=starts, rows=rows)


@dataclass
class RoutingPlan:
    """Precomputed routing of one batch's sorted unique ids.

    Attributes
    ----------
    uids:
        Private copy of the ``(U,)`` int64 ids the plan was built for.
    routes:
        Backend-specific arrays — e.g. ``{"rows": ...}`` for a hash table,
        ``{"hot_mask": ..., "arena_rows": ..., "shared_rows": ...}`` for
        CAFE.  Everything a backend's ``routes`` builds stops at what a gather
        needs; table-backed backends add ``"scatter_rows"`` (one destination
        row per scatter entry) and :meth:`scatter` resolves it on demand.
    token:
        Value of the owning layer's routing token when the plan was built.
    """

    uids: np.ndarray
    routes: dict[str, np.ndarray] = field(default_factory=dict)
    token: object = None

    def scatter(self) -> ScatterPlan:
        """The :class:`ScatterPlan` over ``routes["scatter_rows"]``.

        Built and memoised (as ``routes["scatter"]``) by the first caller,
        which is always an ``apply``: a plan that only ever serves lookups
        (``Trainer.predict``, evaluation) never pays for the stable sort of
        an update it will not make.
        """
        scatter = self.routes.get("scatter")
        if scatter is None:
            scatter = self.routes["scatter"] = ScatterPlan.from_rows(self.routes["scatter_rows"])
        return scatter

    def matches(self, uids: np.ndarray, token: object) -> bool:
        """True when the plan routes exactly these ids under this token."""
        return self.token == token and np.array_equal(self.uids, uids)


@dataclass
class PlanStats:
    """Cache behaviour of a layer's routing-plan reuse."""

    hits: int = 0
    misses: int = 0

    @property
    def reuse_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {"hits": self.hits, "misses": self.misses, "reuse_rate": round(self.reuse_rate, 4)}


class FreeRowPool:
    """Array-backed LIFO pool of free exclusive-row indices.

    Mirrors the subset of the ``list`` API the embedding layers and their
    tests rely on (``len``, ``pop``, ``remove``, ``in``, truthiness,
    iteration) while supporting batched :meth:`claim` and :meth:`release`
    with no per-row Python loop.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: np.ndarray | int | None = None):
        if rows is None:
            rows = np.empty(0, dtype=np.int64)
        elif isinstance(rows, (int, np.integer)):
            rows = np.arange(int(rows), dtype=np.int64)
        self._rows = np.asarray(rows, dtype=np.int64).reshape(-1).copy()

    # ------------------------------------------------------------------ #
    # Batched operations (the hot path)
    # ------------------------------------------------------------------ #
    def claim(self, count: int) -> np.ndarray:
        """Remove and return up to ``count`` rows (LIFO order, like pop)."""
        count = min(int(count), self._rows.shape[0])
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        claimed = self._rows[-count:][::-1].copy()
        self._rows = self._rows[:-count]
        return claimed

    def release(self, rows: np.ndarray) -> int:
        """Return valid (non-negative) rows to the pool; reports how many."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        valid = rows[rows >= 0]
        if valid.size:
            self._rows = np.concatenate([self._rows, valid])
        return int(valid.size)

    @property
    def rows(self) -> np.ndarray:
        """The free rows, not a copy: a claim or release rebinds the pool's
        array and never writes it in place, so a reader may keep it."""
        return self._rows

    # ------------------------------------------------------------------ #
    # list-compatible API
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self._rows.shape[0])

    def __bool__(self) -> bool:
        return self._rows.shape[0] > 0

    def __iter__(self):
        return iter(self._rows.tolist())

    def __contains__(self, row: int) -> bool:
        return bool(np.any(self._rows == int(row)))

    def pop(self) -> int:
        if not self._rows.shape[0]:
            raise IndexError("pop from empty FreeRowPool")
        row = int(self._rows[-1])
        self._rows = self._rows[:-1]
        return row

    def remove(self, row: int) -> None:
        matches = np.nonzero(self._rows == int(row))[0]
        if matches.size == 0:
            raise ValueError(f"row {row} not in free pool")
        self._rows = np.delete(self._rows, matches[0])
