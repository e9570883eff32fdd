"""Uncompressed embedding table — the "ideal" upper baseline in the paper."""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import TableBackedEmbedding
from repro.embeddings.plan import RoutingPlan, ScatterPlan
from repro.nn.init import embedding_uniform
from repro.utils.rng import SeedLike, make_rng


class FullEmbedding(TableBackedEmbedding):
    """One exclusive embedding row per feature (no compression).

    Ids map to rows directly, so there is no hashing to cache in a routing
    plan — lookup and update both index the table with the unique ids, and
    the plan only carries the (identity) scatter the apply consumes.
    """

    _state_parts = {"optimizer.": "_optimizer"}

    def __init__(self, num_features: int, dim: int, rng: SeedLike = None, **table):
        super().__init__(num_features, dim, **table)
        generator = make_rng(rng)
        self.table = embedding_uniform((num_features, dim), generator, dtype=self.dtype)
        self._optimizer = self._new_row_optimizer(self.table)

    def routes(self, uids: np.ndarray) -> dict[str, ScatterPlan]:
        # Distinct ids are distinct rows: the scatter is the identity, no sort.
        identity = np.arange(uids.shape[0], dtype=np.int64)
        return {"scatter": ScatterPlan(perm=identity, starts=identity, rows=uids)}

    def gather(self, uids: np.ndarray, routes: dict[str, ScatterPlan]) -> np.ndarray:
        """Gather the id's own row: one uncompressed row per feature."""
        return np.take(self.table, uids, axis=0)

    def apply(
        self, plan: RoutingPlan, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray
    ) -> None:
        """Scatter each id's gradient sum into its private row."""
        self.fused_apply(self.table, plan.scatter(), grad_sums)
        self._step += 1

    def memory_floats(self) -> int:
        """The full ``num_features x dim`` table."""
        return int(self.table.size)

    def _state_view(self) -> dict[str, np.ndarray]:
        return {"table": self.table, "step": np.asarray(self._step)}

    def _write_state(self, state: dict[str, np.ndarray]) -> None:
        self.table = np.array(state["table"], dtype=self.dtype)
        self._step = int(state["step"])
