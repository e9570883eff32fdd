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

from repro.embeddings.cafe import SKETCH_ATTRIBUTES_PER_SLOT, CafeEmbedding
from repro.embeddings.memory import MemoryBudget
from repro.utils.hashing import hash_to_range
from repro.utils.rng import SeedLike


class CafeMultiLevelEmbedding(CafeEmbedding):
    """CAFE with a 2-level hash embedding for the non-hot features."""

    def __init__(
        self,
        num_features: int,
        dim: int,
        num_hot_rows: int,
        num_shared_rows: int,
        num_secondary_rows: int | None = None,
        medium_fraction: float = 0.2,
        **kwargs,
    ):
        # The secondary region size must be known before the parent
        # constructor lays out the arena.
        if num_secondary_rows is None:
            num_secondary_rows = max(num_shared_rows // 2, 1)
        self.num_secondary_rows = int(num_secondary_rows)
        if not 0.0 < medium_fraction <= 1.0:
            raise ValueError(f"medium_fraction must be in (0, 1], got {medium_fraction}")
        self.medium_fraction = float(medium_fraction)
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
        return self.hot_threshold * self.medium_fraction

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
        hot_percentage: float = 0.7,
        secondary_share: float = 1.0 / 3.0,
        medium_fraction: float = 0.2,
        slots_per_bucket: int = 4,
        **kwargs,
    ) -> "CafeMultiLevelEmbedding":
        """Split the non-hot budget between the primary and secondary tables."""
        if not 0.0 < secondary_share < 1.0:
            raise ValueError(f"secondary_share must be in (0, 1), got {secondary_share}")
        num_hot, total_shared = CafeEmbedding.plan_budget(budget, hot_percentage, slots_per_bucket)
        num_secondary = max(int(total_shared * secondary_share), 1)
        num_primary = max(total_shared - num_secondary, 1)
        return cls(
            num_features=budget.num_features,
            dim=budget.dim,
            num_hot_rows=num_hot,
            num_shared_rows=num_primary,
            num_secondary_rows=num_secondary,
            medium_fraction=medium_fraction,
            slots_per_bucket=slots_per_bucket,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # Checkpointing (via the shared-table hooks, so the base class's
    # state_dict/load_state_dict need no knowledge of the extra table)
    # ------------------------------------------------------------------ #
    def _shared_state_dict(self) -> dict[str, np.ndarray]:
        state = super()._shared_state_dict()
        state["secondary_table"] = self.secondary_table.copy()
        return state

    def _load_shared_state_dict(self, state: dict[str, np.ndarray]) -> None:
        super()._load_shared_state_dict(state)
        secondary = np.asarray(state["secondary_table"], dtype=self.dtype)
        if secondary.shape != self.secondary_table.shape:
            raise ValueError(
                f"checkpoint secondary_table shape {secondary.shape} does not match "
                f"{self.secondary_table.shape}"
            )
        self.secondary_table[:] = secondary
