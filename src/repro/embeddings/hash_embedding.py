"""Hash-trick embedding (Weinberger et al., 2009) — the simplest baseline.

All features are mapped by one hash function into a table with fewer rows
than features; collisions make unrelated features share (and jointly update)
the same embedding vector, which is the source of the accuracy loss the paper
quantifies (§1.2, "Hash-based methods").
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import TableBackedEmbedding
from repro.embeddings.memory import MemoryBudget
from repro.embeddings.plan import RoutingPlan
from repro.errors import CheckpointLayoutError
from repro.nn.init import embedding_uniform
from repro.utils.hashing import hash_to_range
from repro.utils.rng import SeedLike, make_rng


class HashEmbedding(TableBackedEmbedding):
    """Single-hash shared embedding table."""

    _state_parts = {"optimizer.": "_optimizer"}
    #: Seed of the id -> row hash; a checkpoint records it, and one written
    #: under another seed is refused.
    hash_seed = 17

    def __init__(self, num_features: int, dim: int, num_rows: int, rng: SeedLike = None, **table):
        super().__init__(num_features, dim, **table)
        if num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {num_rows}")
        generator = make_rng(rng)
        self.num_rows = int(min(num_rows, num_features))
        self.table = embedding_uniform((self.num_rows, dim), generator, dtype=self.dtype)
        self._optimizer = self._new_row_optimizer(self.table)

    @classmethod
    def from_budget(cls, budget: MemoryBudget, **kwargs) -> "HashEmbedding":
        """Size the table so that its memory fits ``budget`` exactly."""
        return cls(budget.num_features, budget.dim, num_rows=budget.rows(), **kwargs)

    def _rows_for(self, ids: np.ndarray) -> np.ndarray:
        return hash_to_range(ids, self.num_rows, seed=self.hash_seed)

    def routes(self, uids: np.ndarray) -> dict[str, np.ndarray]:
        rows = self._rows_for(uids)
        return {"rows": rows, "scatter_rows": rows}

    def gather(self, uids: np.ndarray, routes: dict[str, np.ndarray]) -> np.ndarray:
        """Gather each id's single hashed row from the shared table (hash-trick:
        colliding features share one row verbatim).
        """
        return np.take(self.table, routes["rows"], axis=0)

    def apply(
        self, plan: RoutingPlan, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray
    ) -> None:
        """Scatter per-id gradient sums into the hashed rows; colliding
        features accumulate into the same shared row.
        """
        self.fused_apply(self.table, plan.scatter(), grad_sums)
        self._step += 1

    def memory_floats(self) -> int:
        """One ``num_rows x dim`` table; no auxiliary structures."""
        return int(self.table.size)

    def _state_view(self) -> dict[str, np.ndarray]:
        return {
            "table": self.table,
            "hash_seed": np.asarray(self.hash_seed),
            "step": np.asarray(self._step),
        }

    def check_state(self, state: dict[str, np.ndarray]) -> None:
        super().check_state(state)
        if int(state["hash_seed"]) != self.hash_seed:
            raise CheckpointLayoutError(
                f"checkpoint hash_seed {int(state['hash_seed'])} is not this table's "
                f"{self.hash_seed}; rows would route differently"
            )

    def _write_state(self, state: dict[str, np.ndarray]) -> None:
        self.table = np.array(state["table"], dtype=self.dtype)
        self._step = int(state["step"])
