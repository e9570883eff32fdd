"""Multi-level CAFE (paper Section 3.4).

Non-hot features are further split by importance into *medium* and *cold*
classes.  Medium features combine two rows from two distinct hash tables
(summation pooling), cold features read a single row from the first table, so
a feature moving between the classes keeps its first-table row and its
representation stays smooth — exactly the behaviour described in the paper.

The secondary table is a third region of the base class's arena; a medium id
simply contributes two scatter entries (its primary shared row and its
secondary row), so summation pooling rides the same single segment-sum +
scatter as everything else.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.cafe import HOT_PERCENTAGE, SLOTS_PER_BUCKET, CafeEmbedding
from repro.embeddings.memory import MemoryBudget
from repro.utils.hashing import hash_to_range

#: Medium features have scores in ``[MEDIUM_FRACTION · hot_threshold,
#: hot_threshold)``; below that a non-hot feature is cold.
MEDIUM_FRACTION = 0.2

#: Share of the non-hot rows a budget gives the secondary table.
SECONDARY_SHARE = 1.0 / 3.0


class CafeMultiLevelEmbedding(CafeEmbedding):
    """CAFE with a 2-level hash embedding for the non-hot features."""

    _state_owner = "a CAFE-ML shard"

    def __init__(
        self,
        num_features: int,
        dim: int,
        num_hot_rows: int,
        num_shared_rows: int,
        num_secondary_rows: int,
        **kwargs,
    ):
        # The secondary region size must be known before the parent
        # constructor lays out the arena.
        self.num_secondary_rows = int(num_secondary_rows)
        super().__init__(
            num_features=num_features,
            dim=dim,
            num_hot_rows=num_hot_rows,
            num_shared_rows=num_shared_rows,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # Arena + shared-table hooks
    # ------------------------------------------------------------------ #
    def _arena_regions(self) -> list[tuple[str, int]]:
        return super()._arena_regions() + [("secondary_table", self.num_secondary_rows)]

    @property
    def medium_threshold(self) -> float:
        """Medium features have scores in ``[medium_threshold, hot_threshold)``."""
        return self.hot_threshold * MEDIUM_FRACTION

    def _medium_mask(self, cold_ids: np.ndarray) -> np.ndarray:
        scores = self.sketch.query(cold_ids)
        return scores >= self.medium_threshold

    def _shared_routes(self, cold_ids: np.ndarray) -> dict[str, np.ndarray]:
        routes = super()._shared_routes(cold_ids)
        medium = self._medium_mask(cold_ids)
        routes["medium_mask"] = medium
        routes["secondary_rows"] = hash_to_range(
            cold_ids[medium], self.num_secondary_rows, seed=self.hash_seed + 1
        )
        return routes

    def _shared_lookup_routed(self, routes: dict[str, np.ndarray]) -> np.ndarray:
        out = self.shared_table[routes["shared_rows"]].copy()
        medium = routes["medium_mask"]
        if medium.any():
            out[medium] += self.secondary_table[routes["secondary_rows"]]
        return out

    def _shared_table_floats(self) -> int:
        return int(self.shared_table.size + self.secondary_table.size)

    # ------------------------------------------------------------------ #
    # Scatter hooks
    # ------------------------------------------------------------------ #
    def _scatter_entries(
        self, arena_rows: np.ndarray, routes: dict[str, np.ndarray]
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Medium ids scatter into two rows: primary shared + secondary.

        The extra entries reference the same per-id gradient sum, so the
        segment sum naturally performs the summation-pooling backward pass.
        """
        medium_sources = np.flatnonzero(~routes["hot_mask"])[routes["medium_mask"]]
        secondary_arena_rows = (
            self._region_offsets["secondary_table"] + routes["secondary_rows"]
        )
        # Stash the resolved extras for the lookup's secondary add.
        routes["medium_sources"] = medium_sources
        routes["secondary_arena_rows"] = secondary_arena_rows
        if medium_sources.shape[0] == 0:
            return None, arena_rows
        sources = np.concatenate(
            [np.arange(arena_rows.shape[0], dtype=np.int64), medium_sources]
        )
        rows = np.concatenate([arena_rows, secondary_arena_rows])
        return sources, rows

    def _lookup_fused_extra(self, out: np.ndarray, routes: dict[str, np.ndarray]) -> None:
        medium_sources = routes["medium_sources"]
        if medium_sources.shape[0]:
            out[medium_sources] += self._arena[routes["secondary_arena_rows"]]

    # ------------------------------------------------------------------ #
    # Budget-driven construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_budget(
        cls,
        budget: MemoryBudget,
        hot_percentage: float = HOT_PERCENTAGE,
        **kwargs,
    ) -> "CafeMultiLevelEmbedding":
        """CAFE's split, with :data:`SECONDARY_SHARE` of the non-hot rows in
        the secondary table; every other keyword goes to the constructor."""
        slots = kwargs.get("slots_per_bucket", SLOTS_PER_BUCKET)
        num_hot, total_shared = cls.plan_budget(budget, hot_percentage, slots)
        num_secondary = max(int(total_shared * SECONDARY_SHARE), 1)
        num_primary = max(total_shared - num_secondary, 1)
        return cls(
            budget.num_features, budget.dim, num_hot, num_primary, num_secondary, **kwargs
        )
