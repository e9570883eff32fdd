"""Classic SpaceSaving (Metwally et al., 2005).

HotSketch is derived from SpaceSaving by dropping the global sorted structure
and hash index in favour of hashed buckets.  The exact algorithm is kept here
as (a) an accuracy reference for the HotSketch evaluation (Figure 18) and (b)
a reusable top-k component for the data-analysis utilities.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.sketch.base import Sketch


@dataclass(order=True)
class _Entry:
    score: float
    key: int = field(compare=False)
    valid: bool = field(default=True, compare=False)


class SpaceSaving(Sketch):
    """Exact SpaceSaving with ``capacity`` monitored keys.

    Implemented with a dictionary plus a lazily-rebuilt min-heap, which gives
    amortized O(log capacity) updates — not the O(1) Stream-Summary of the
    original paper, but functionally identical estimates, which is all the
    comparison experiments need.  It answers :meth:`top_k` only (the
    evaluation compares top-k sets); it has no point :meth:`query`.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._scores: dict[int, float] = {}
        self._heap: list[_Entry] = []
        self._entries: dict[int, _Entry] = {}

    def _push(self, key: int, score: float) -> None:
        entry = _Entry(score=score, key=key)
        self._entries[key] = entry
        heapq.heappush(self._heap, entry)

    def _invalidate(self, key: int) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            entry.valid = False

    def _pop_min(self) -> tuple[int, float]:
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.valid and entry.key in self._scores:
                return entry.key, self._scores[entry.key]
        raise RuntimeError("SpaceSaving heap unexpectedly empty")  # pragma: no cover

    def insert(self, keys: np.ndarray, scores: np.ndarray | None = None) -> None:
        keys, scores = self._normalize_inputs(keys, scores)
        for key, score in zip(keys.tolist(), scores.tolist()):
            if key in self._scores:
                self._scores[key] += score
                self._invalidate(key)
                self._push(key, self._scores[key])
            elif len(self._scores) < self.capacity:
                self._scores[key] = score
                self._push(key, score)
            else:
                min_key, min_score = self._pop_min()
                del self._scores[min_key]
                self._invalidate(min_key)
                self._scores[key] = min_score + score
                self._push(key, min_score + score)

    def top_k(self, k: int) -> np.ndarray:
        ordered = sorted(self._scores.items(), key=lambda item: item[1], reverse=True)
        return np.asarray([key for key, _ in ordered[:k]], dtype=np.int64)

    def memory_floats(self) -> int:
        # Key + score + the hash-table/linked-list overhead the paper calls
        # out (it "doubles the memory usage"): 4 attributes per monitored key.
        return int(self.capacity * 4)
