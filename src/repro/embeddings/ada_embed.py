"""AdaEmbed (Lai et al., OSDI 2023) reimplemented as a comparison baseline.

AdaEmbed tracks an importance score for *every* feature, keeps exclusive
embedding rows only for the currently most-important ones, and periodically
reallocates rows when the importance ranking changes.  Two properties matter
for the paper's comparison (§1.2, §5.2):

* its memory floor — the per-feature score array scales with ``n``, so the
  achievable compression ratio is capped (e.g. ~5× on Criteo with dim 16);
* its latency — the periodic sampling/reallocation pass is much more
  expensive than CAFE's O(1) sketch update (Figure 13).

This implementation follows the published description: importance is an
exponentially-decayed running sum of gradient norms, reallocation swaps rows
from the least-important allocated features to unallocated features whose
importance exceeds them by a hysteresis margin, and unallocated features fall
back to a small shared hash table so they still receive *some* signal.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import TableBackedEmbedding, update_rows
from repro.embeddings.memory import MemoryBudget
from repro.embeddings.plan import FreeRowPool, RoutingPlan
from repro.errors import MemoryBudgetError
from repro.nn.init import embedding_uniform
from repro.utils.hashing import hash_to_range
from repro.utils.rng import SeedLike, make_rng

UNALLOCATED = np.int64(-1)

#: Rows of the shared fallback table the unallocated features hash into.
SHARED_ROWS = 1
#: Per-step decay of the running importance scores.
IMPORTANCE_DECAY = 0.99
#: Steps between two reallocation passes.
REALLOCATION_INTERVAL = 100
#: How much an unallocated feature's importance must beat the weakest
#: allocated one's before it takes that row.
HYSTERESIS = 1.25


class AdaEmbed(TableBackedEmbedding):
    """Adaptive embedding with per-feature importance bookkeeping."""

    #: Seed of the hash into the shared fallback table.
    hash_seed = 29

    def __init__(
        self,
        num_features: int,
        dim: int,
        num_rows: int,
        rng: SeedLike = None,
        **table,
    ):
        super().__init__(num_features, dim, **table)
        if num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {num_rows}")
        generator = make_rng(rng)
        self.num_rows = int(min(num_rows, num_features))

        # Exclusive rows for allocated features and a small shared fallback.
        self.table = embedding_uniform((self.num_rows, dim), generator, dtype=self.dtype)
        self.shared_table = embedding_uniform((SHARED_ROWS, dim), generator, dtype=self.dtype)
        self._optimizer = self._new_row_optimizer(self.table)
        self._shared_optimizer = self._new_row_optimizer(self.shared_table)

        # Per-feature state: importance score and allocated row (or -1).
        self.importance = np.zeros(num_features, dtype=np.float64)
        self.row_of = np.full(num_features, UNALLOCATED, dtype=np.int64)
        self.owner_of = np.full(self.num_rows, UNALLOCATED, dtype=np.int64)
        self._free_rows = FreeRowPool(self.num_rows)
        self.reallocation_count = 0

    # ------------------------------------------------------------------ #
    # Budget-driven construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_budget(cls, budget: MemoryBudget, **kwargs) -> "AdaEmbed":
        """Size the row table after reserving one importance float per feature."""
        overhead = budget.num_features  # one score per feature
        if budget.total_floats <= overhead + budget.dim:
            raise MemoryBudgetError(
                f"AdaEmbed stores one importance score per feature ({overhead} floats); "
                f"a budget of {budget.total_floats} floats (CR {budget.compression_ratio:.0f}x) "
                "leaves no room for embedding rows"
            )
        rows = budget.rows(overhead_floats=overhead)
        return cls(budget.num_features, budget.dim, num_rows=rows, **kwargs)

    # ------------------------------------------------------------------ #
    # Lookup / update
    # ------------------------------------------------------------------ #
    def routes(self, uids: np.ndarray) -> dict[str, np.ndarray]:
        rows = self.row_of[uids]
        allocated = rows != UNALLOCATED
        shared_rows = hash_to_range(uids[~allocated], SHARED_ROWS, seed=self.hash_seed)
        return {"rows": rows, "allocated": allocated, "shared_rows": shared_rows}

    def gather(self, uids: np.ndarray, routes: dict[str, np.ndarray]) -> np.ndarray:
        """Gather allocated features from their private rows and the rest from
        the shared fallback table, per the current importance-driven
        allocation.
        """
        rows, allocated = routes["rows"], routes["allocated"]
        out = np.empty((uids.shape[0], self.dim), dtype=self.dtype)
        out[allocated] = self.table[rows[allocated]]
        out[~allocated] = self.shared_table[routes["shared_rows"]]
        return out

    def apply(
        self, plan: RoutingPlan, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray
    ) -> None:
        """Update allocated/shared rows, fold the summed gradient norms into
        the decayed importance scores, and run the periodic reallocation pass.
        """
        routes = plan.routes
        self.importance *= IMPORTANCE_DECAY
        self.importance[uids] += scores

        rows, allocated = routes["rows"], routes["allocated"]
        if allocated.any():
            update_rows(self._optimizer, self.table, rows[allocated], grad_sums[allocated])
        if not allocated.all():
            update_rows(
                self._shared_optimizer, self.shared_table, routes["shared_rows"], grad_sums[~allocated]
            )

        self._step += 1
        if self._step % REALLOCATION_INTERVAL == 0:
            self._reallocate()

    # ------------------------------------------------------------------ #
    # Reallocation (the "sampling and migration" the paper charges latency to)
    # ------------------------------------------------------------------ #
    def _reallocate(self) -> None:
        """Give rows to the currently most-important features.

        The top-``num_rows`` features by importance deserve rows.  Allocated
        features outside that set are evicted only if an unallocated candidate
        beats them by the hysteresis factor, which avoids thrashing when
        importance scores are noisy.
        """
        top = np.argpartition(self.importance, -self.num_rows)[-self.num_rows :]
        deserving = set(int(f) for f in top if self.importance[f] > 0)
        allocated_features = np.nonzero(self.row_of != UNALLOCATED)[0]

        # Release rows from features that are no longer deserving.
        candidates_out = [int(f) for f in allocated_features if int(f) not in deserving]
        candidates_out.sort(key=lambda f: self.importance[f])
        candidates_in = [f for f in deserving if self.row_of[f] == UNALLOCATED]
        candidates_in.sort(key=lambda f: -self.importance[f])

        for feature_in in candidates_in:
            if self._free_rows:
                row = self._free_rows.pop()
            elif candidates_out:
                weakest = candidates_out[0]
                if self.importance[feature_in] < HYSTERESIS * self.importance[weakest]:
                    break
                candidates_out.pop(0)
                row = int(self.row_of[weakest])
                self.row_of[weakest] = UNALLOCATED
                self._optimizer.reset_rows(np.asarray([row]))
            else:
                break
            # Initialize the new row from the shared fallback so training stays smooth.
            shared_row = hash_to_range(np.asarray([feature_in]), SHARED_ROWS, seed=self.hash_seed)[0]
            self.table[row] = self.shared_table[shared_row]
            self.row_of[feature_in] = row
            self.owner_of[row] = feature_in
            self.reallocation_count += 1
        # Row assignments changed; cached routing plans are stale.
        self.invalidate_plan()

    def num_allocated(self) -> int:
        return int((self.row_of != UNALLOCATED).sum())

    def memory_floats(self) -> int:
        """Private rows + shared table + the per-feature importance array."""
        return int(self.table.size + self.shared_table.size + self.importance.size)
