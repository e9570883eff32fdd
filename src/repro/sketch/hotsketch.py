"""HotSketch: the bucketized SpaceSaving sketch at the heart of CAFE.

The structure (paper §3.2) is an array of ``w`` buckets with ``c`` slots each.
Every slot stores a feature id and its accumulated importance score; a single
hash places each feature in one bucket.  Insertion follows SpaceSaving
semantics *within the bucket*:

1. if the feature is already recorded, add its score;
2. else, if the bucket has an empty slot, claim it;
3. else, overwrite the slot with the minimum score and add the new score on
   top of the old one (the classic SpaceSaving over-estimate).

On top of the basic sketch this implementation adds the pieces CAFE needs:

* an optional *payload* per slot (CAFE stores the pointer to the feature's
  exclusive embedding row there, exactly as described in §3.1);
* eviction reporting, so the embedding layer can reclaim rows whose owner was
  pushed out of the sketch;
* score decay by a caller-given factor (§3.3) to track shifting
  distributions.

What counts as hot (§3.3, §3.4) and how often to decay are the embedding
layer's decisions, not the sketch's: it reads ``keys`` / ``scores`` /
``payloads`` and ``locate`` results directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SketchStateMismatchError
from repro.kernels.ops import (
    SegmentSum,
    run_lengths,
    segment_boundaries,
    sketch_insert,
    stable_order,
    stable_sort,
)
from repro.nn.module import Restorable, check_fits
from repro.utils.hashing import hash_to_bucket

EMPTY_KEY = np.int64(-1)
NO_PAYLOAD = np.int64(-1)

#: Word views for per-row boolean reductions, keyed by row width in bytes.
_ROW_VIEW_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _row_any(matrix: np.ndarray) -> np.ndarray:
    """``matrix.any(axis=1)`` for a small-width C-contiguous bool matrix.

    numpy's boolean ``any`` reduction over a tiny trailing axis costs ~10x a
    flat compare; viewing each row's bytes as one unsigned word and testing
    it against zero gives the same answer in a single vectorized pass.
    Falls back to ``any`` for widths without a matching word dtype.
    """
    dtype = _ROW_VIEW_DTYPES.get(matrix.shape[1] if matrix.ndim == 2 else 0)
    if dtype is None or not matrix.flags.c_contiguous:
        return matrix.any(axis=1)
    return matrix.view(dtype).ravel() != 0


@dataclass
class EvictionBatch:
    """Features displaced from the sketch during one insert call, with the
    bucket each was displaced from (a stacked store's shard owner)."""

    keys: np.ndarray
    payloads: np.ndarray
    buckets: np.ndarray | None = None

    @classmethod
    def empty(cls) -> "EvictionBatch":
        nothing = np.empty(0, dtype=np.int64)
        return cls(nothing, nothing, nothing)


class HotSketch(Restorable):
    """Bucketized SpaceSaving sketch for tracking feature importance.

    Parameters
    ----------
    num_buckets:
        ``w`` in the paper.  The CAFE implementation sets this to the number
        of exclusive (hot) embedding rows.
    slots_per_bucket:
        ``c`` in the paper (CAFE's ``SLOTS_PER_BUCKET`` is its 4, §4).
    seed:
        Seed of the bucket hash function.
    """

    def __init__(self, num_buckets: int, slots_per_bucket: int, seed: int):
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        if slots_per_bucket <= 0:
            raise ValueError(f"slots_per_bucket must be positive, got {slots_per_bucket}")

        self.num_buckets = int(num_buckets)
        self.slots_per_bucket = int(slots_per_bucket)
        self.seed = int(seed)

        shape = (self.num_buckets, self.slots_per_bucket)
        self.keys = np.full(shape, EMPTY_KEY, dtype=np.int64)
        self.scores = np.zeros(shape, dtype=np.float64)
        self.payloads = np.full(shape, NO_PAYLOAD, dtype=np.int64)
        self.total_insertions = 0

    # ------------------------------------------------------------------ #
    # Core sketch operations
    # ------------------------------------------------------------------ #
    def insert(self, keys: np.ndarray, scores: np.ndarray | None = None) -> EvictionBatch:
        """Insert a batch of ``(key, score)`` pairs.

        Duplicate keys within the batch are aggregated first (their scores are
        summed), which makes the per-bucket work proportional to the number
        of distinct features per batch.  Returns the features evicted by
        SpaceSaving replacement along with their payloads so the caller can
        release external resources.

        A call is one *aggregated* step, not a replay of its keys in stream
        order: each distinct key arrives once with its batch total, and the
        misses of one bucket are placed in ascending key order.  So a whole
        stream inserted as one call loses SpaceSaving's recency — with one
        slot per bucket the largest id of each bucket simply wins.  Feed a
        stream in training-sized batches to get the streaming behaviour.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if scores is None:
            scores = np.ones(keys.shape[0], dtype=np.float64)
        scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        if scores.shape[0] != keys.shape[0]:
            raise ValueError(
                f"keys and scores must have the same length, got {keys.shape[0]} and {scores.shape[0]}"
            )
        if keys.size == 0:
            return EvictionBatch.empty()
        keys, scores = self.aggregate_duplicates(keys, scores)
        return self.insert_routed(keys, scores, *self.locate(keys))

    @staticmethod
    def aggregate_duplicates(keys: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sum scores of duplicate keys; returns unique keys and their totals.

        Totals are formed by a stable key sort followed by a segment sum
        (:class:`~repro.kernels.ops.SegmentSum`, ``np.add.reduceat``'s
        association), summing each key's scores in input order.
        This is the same aggregation the fused embedding path performs from
        its routing plan, which keeps the two bit-exact with each other.
        """
        order = stable_order(keys)
        unique_keys, starts = segment_boundaries(keys[order])
        return unique_keys, SegmentSum(order, starts)(scores)

    def insert_routed(
        self,
        keys: np.ndarray,
        scores: np.ndarray,
        found: np.ndarray,
        buckets: np.ndarray,
        slots: np.ndarray,
    ) -> EvictionBatch:
        """Insert pre-aggregated, pre-located ``(key, score)`` pairs.

        The embedding step already holds the locate results of the
        current batch in its routing plan (and the plan token guarantees the
        sketch has not mutated since they were taken), so re-probing here
        would be pure waste.  ``keys`` must be unique, sorted ascending, with
        summed float64 scores; ``(found, buckets, slots)`` must equal
        ``self.locate(keys)`` against the sketch's current state (or any
        caller-chosen bucket rows: nothing here re-hashes).  Produces
        bit-identical state to :meth:`insert` on the equivalent raw stream.
        """
        if keys.shape[0] == 0:
            return EvictionBatch.empty()
        self.total_insertions += int(keys.shape[0])

        if found.any():
            lin = buckets[found] * self.slots_per_bucket + slots[found]
            sketch_insert(self.scores.ravel(), lin, scores[found])

        missing = ~found
        if not missing.any():
            return EvictionBatch.empty()
        return self._insert_misses(keys[missing], scores[missing], buckets[missing])

    def _insert_misses(
        self, keys: np.ndarray, scores: np.ndarray, buckets: np.ndarray
    ) -> EvictionBatch:
        """Empty-slot claim / SpaceSaving replacement for keys not yet recorded.

        Misses are grouped by bucket and processed in *rounds*: round ``r``
        handles the ``r``-th miss of every bucket simultaneously, so each
        round touches distinct buckets and is fully vectorized (segmented
        empty-slot claim, then argmin replacement for full buckets).  The
        number of rounds is the maximum number of misses sharing one bucket
        in this batch — typically 1 — not the number of keys.  The steady
        state (no empty slots, nothing reportable rarely skipped) takes the
        branch-free fast paths: round 0 selects via the segment starts
        directly, and all slot state is addressed through flat views.
        """
        c = self.slots_per_bucket
        order, buckets = stable_sort(buckets)
        keys, scores = keys[order], scores[order]
        n = buckets.shape[0]
        _, segment_starts = segment_boundaries(buckets)

        # Misses sharing a bucket sit consecutively after the sort, so the
        # ``r``-th miss of each segment lives at ``segment_starts + r`` where
        # the segment is long enough; no per-element rank array is needed.
        counts = None
        rounds = 1
        if segment_starts.shape[0] != n:
            counts = run_lengths(segment_starts, n)
            rounds = int(counts.max())

        flat_keys = self.keys.ravel()
        flat_scores = self.scores.ravel()
        flat_payloads = self.payloads.ravel()
        # Slots only ever fill up, so once no slot anywhere is empty (the
        # steady state) the per-round empty-slot probe is skipped wholesale.
        may_have_empty = bool((flat_keys == EMPTY_KEY).any())

        evicted_keys: list[np.ndarray] = []
        evicted_payloads: list[np.ndarray] = []
        evicted_buckets: list[np.ndarray] = []
        for rank in range(rounds):
            sel = segment_starts if rank == 0 else segment_starts[counts > rank] + rank
            bucket = buckets[sel]  # distinct buckets within one round
            score = scores[sel]

            any_empty = False
            if may_have_empty:
                empty = np.take(self.keys, bucket, axis=0) == EMPTY_KEY  # (m, c)
                has_empty = _row_any(empty)
                any_empty = bool(has_empty.any())
            # First empty slot where available, minimum-score slot otherwise.
            slot = np.take(self.scores, bucket, axis=0).argmin(axis=1)
            if any_empty:
                slot = np.where(has_empty, empty.argmax(axis=1), slot)
            lin = bucket * c + slot

            old_payloads = flat_payloads[lin]
            reportable = old_payloads != NO_PAYLOAD
            if any_empty:
                reportable &= ~has_empty
            if reportable.any():
                evicted_keys.append(flat_keys[lin[reportable]].copy())
                evicted_payloads.append(old_payloads[reportable].copy())
                evicted_buckets.append(bucket[reportable])

            # SpaceSaving: a replacement inherits the displaced minimum score.
            if any_empty:
                flat_scores[lin] = np.where(has_empty, score, flat_scores[lin] + score)
            else:
                flat_scores[lin] += score
            flat_keys[lin] = keys[sel]
            flat_payloads[lin] = NO_PAYLOAD

        if not evicted_keys:
            return EvictionBatch.empty()
        return EvictionBatch(
            np.concatenate(evicted_keys),
            np.concatenate(evicted_payloads),
            np.concatenate(evicted_buckets),
        )

    def query(self, keys: np.ndarray) -> np.ndarray:
        """Estimated importance score for each key (0 if not recorded)."""
        keys = np.asarray(keys, dtype=np.int64)
        flat = keys.reshape(-1)
        buckets = hash_to_bucket(flat, self.num_buckets, seed=self.seed)
        slot_match = np.take(self.keys, buckets, axis=0) == flat[:, None]
        scores = np.where(slot_match, np.take(self.scores, buckets, axis=0), 0.0).max(axis=1)
        scores = np.where(_row_any(slot_match), scores, 0.0)
        return scores.reshape(keys.shape)

    def locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(found, buckets, slots)`` for each key.

        ``slots`` is only meaningful where ``found`` is True.  This is the
        low-level accessor the CAFE embedding layer uses to read and write
        slot payloads in bulk.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        buckets = hash_to_bucket(keys, self.num_buckets, seed=self.seed)
        found, slots = self.match(keys, buckets)
        return found, buckets, slots

    def match(self, keys: np.ndarray, buckets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(found, slots)`` of each key in its given bucket row (the half of
        :meth:`locate` after the hash)."""
        slot_match = np.take(self.keys, buckets, axis=0) == keys[:, None]
        return _row_any(slot_match), slot_match.argmax(axis=1)

    # ------------------------------------------------------------------ #
    # Decay and reporting
    # ------------------------------------------------------------------ #
    def apply_decay(self, factor: float) -> None:
        """Multiply every recorded score by ``factor`` (§3.3's decay, whose
        coefficient and period the caller owns)."""
        self.scores *= factor

    def top_k(self, k: int) -> np.ndarray:
        """The ``k`` recorded features with the largest scores."""
        mask = self.keys != EMPTY_KEY
        keys = self.keys[mask]
        scores = self.scores[mask]
        if keys.size == 0:
            return np.empty(0, dtype=np.int64)
        order = np.argsort(scores)[::-1]
        return keys[order[:k]]

    def memory_floats(self) -> int:
        """Each slot stores a key, a score and a payload: 3 attributes.

        The paper's §5.3 memory accounting ("each slot 3 attributes", ratio
        ``12 : d`` between a 4-slot-per-hot-feature sketch and ``d``-dim
        exclusive embeddings) corresponds to counting every attribute as one
        float32-equivalent, which is what this returns.
        """
        return int(self.num_buckets * self.slots_per_bucket * 3)

    # ------------------------------------------------------------------ #
    # Checkpointing (paper §4, "Fault Tolerance")
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        return {key: value.copy() for key, value in self._state_view().items()}

    def _state_view(self) -> dict[str, np.ndarray]:
        """:meth:`state_dict`'s entries as the live arrays, not copies."""
        return {
            "keys": self.keys,
            "scores": self.scores,
            "payloads": self.payloads,
            "total_insertions": np.asarray(self.total_insertions),
        }

    def check_state(self, state: dict[str, np.ndarray]) -> None:
        """Raise :class:`~repro.errors.SketchStateMismatchError` unless ``state``
        fits (:func:`~repro.nn.module.check_fits`, on the live arrays' shapes):
        another geometry would misplace every feature."""
        check_fits(
            state, self._state_view(),
            "checkpoint holds sketch state {found}; this sketch takes {takes}",
            SketchStateMismatchError,
        )

    def write_state(self, state: dict[str, np.ndarray]) -> None:
        """Write a state :meth:`check_state` passed in place (the arrays may
        be views into a stacked store), checking nothing."""
        for name in ("keys", "scores", "payloads"):
            getattr(self, name)[...] = state[name]
        self.total_insertions = int(state["total_insertions"])
