"""Offline hot/cold separation — the oracle baseline of Figure 14.

This method is given the *exact* feature frequencies ahead of time (a full
pass over the training data), assigns exclusive rows to the most frequent
features and a shared hash table to the rest, and never migrates.  The paper
uses it to show that CAFE's online, sketch-based separation matches an
offline oracle that cannot be deployed in practice (it needs the statistics
pass and cannot adapt during online training).

Following the paper's setup, the exclusive/shared split mirrors CAFE's memory
plan so the comparison is apples-to-apples; the frequency statistics
themselves are *not* charged to the memory budget (they are an offline
artifact), which is exactly the unfair advantage §5.2.6 points out.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import TableBackedEmbedding, update_rows
from repro.embeddings.cafe import HOT_PERCENTAGE, CafeEmbedding
from repro.embeddings.memory import MemoryBudget
from repro.embeddings.plan import RoutingPlan
from repro.nn.init import embedding_uniform
from repro.utils.hashing import hash_to_range
from repro.utils.rng import SeedLike, make_rng

_NO_ROW = np.int64(-1)


class OfflineSeparationEmbedding(TableBackedEmbedding):
    """Frequency-oracle hot/cold split with no online adaptation."""

    #: Seed of the hash into the shared table.
    hash_seed = 101

    def __init__(
        self,
        num_features: int,
        dim: int,
        num_hot_rows: int,
        num_shared_rows: int,
        frequencies: np.ndarray,
        rng: SeedLike = None,
        **table,
    ):
        super().__init__(num_features, dim, **table)
        frequencies = np.asarray(frequencies, dtype=np.float64)
        if frequencies.shape != (num_features,):
            raise ValueError(
                f"frequencies must have shape ({num_features},), got {frequencies.shape}"
            )
        if num_hot_rows <= 0 or num_shared_rows <= 0:
            raise ValueError("num_hot_rows and num_shared_rows must be positive")
        generator = make_rng(rng)
        self.num_hot_rows = int(min(num_hot_rows, num_features))
        self.num_shared_rows = int(num_shared_rows)

        hot_features = np.argsort(frequencies)[::-1][: self.num_hot_rows]
        self.row_of = np.full(num_features, _NO_ROW, dtype=np.int64)
        self.row_of[hot_features] = np.arange(self.num_hot_rows)

        self.hot_table = embedding_uniform((self.num_hot_rows, dim), generator, dtype=self.dtype)
        self.shared_table = embedding_uniform(
            (self.num_shared_rows, dim), generator, dtype=self.dtype
        )
        self._hot_optimizer = self._new_row_optimizer(self.hot_table)
        self._shared_optimizer = self._new_row_optimizer(self.shared_table)

    @classmethod
    def from_budget(
        cls,
        budget: MemoryBudget,
        frequencies: np.ndarray,
        **kwargs,
    ) -> "OfflineSeparationEmbedding":
        """Use the same hot/shared split as CAFE for a fair comparison."""
        num_hot, num_shared = CafeEmbedding.plan_budget(budget, HOT_PERCENTAGE)
        return cls(budget.num_features, budget.dim, num_hot, num_shared, frequencies, **kwargs)

    def routes(self, uids: np.ndarray) -> dict[str, np.ndarray]:
        # The hot/cold split is frozen at construction, so plans never go stale.
        rows = self.row_of[uids]
        hot_mask = rows != _NO_ROW
        shared_rows = hash_to_range(uids[~hot_mask], self.num_shared_rows, seed=self.hash_seed)
        return {"rows": rows, "hot_mask": hot_mask, "shared_rows": shared_rows}

    def gather(self, uids: np.ndarray, routes: dict[str, np.ndarray]) -> np.ndarray:
        """Gather hot features (by offline frequency oracle) from private rows
        and cold features from the shared table.
        """
        rows, hot_mask = routes["rows"], routes["hot_mask"]
        out = np.empty((uids.shape[0], self.dim), dtype=self.dtype)
        out[hot_mask] = self.hot_table[rows[hot_mask]]
        out[~hot_mask] = self.shared_table[routes["shared_rows"]]
        return out

    def apply(
        self, plan: RoutingPlan, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray
    ) -> None:
        """Update the private/shared rows under the fixed offline hot/cold
        split; no importance tracking happens online.
        """
        routes = plan.routes
        rows, hot_mask = routes["rows"], routes["hot_mask"]
        if hot_mask.any():
            update_rows(self._hot_optimizer, self.hot_table, rows[hot_mask], grad_sums[hot_mask])
        if not hot_mask.all():
            update_rows(
                self._shared_optimizer, self.shared_table, routes["shared_rows"], grad_sums[~hot_mask]
            )
        self._step += 1

    def memory_floats(self) -> int:
        # The offline frequency statistics are intentionally *not* counted —
        # that is the advantage the paper's §5.2.6 calls out as impractical.
        return int(self.hot_table.size + self.shared_table.size)
