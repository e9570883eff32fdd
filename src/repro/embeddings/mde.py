"""Mixed-Dimension Embeddings (Ginart et al., 2021) — column compression.

MDE keeps one row per feature but shrinks the *width* of each field's table
according to a popularity-based rule, then projects each narrow embedding up
to the common dimension with a trainable per-field matrix.  The paper uses it
as the representative column-compression comparator (Figure 12) and notes two
consequences that this implementation reproduces:

* the compression ratio is bounded by the original dimension (every feature
  needs at least one column), and
* at large compression ratios the low-rank projection loses semantic
  information, degrading accuracy faster than row compression.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import TableBackedEmbedding, update_rows
from repro.embeddings.memory import MemoryBudget
from repro.embeddings.plan import RoutingPlan
from repro.errors import MemoryBudgetError
from repro.nn.init import embedding_uniform, xavier_uniform
from repro.utils.rng import SeedLike, make_rng

#: The MDE popularity exponent α: fields with larger cardinality get
#: proportionally fewer columns (``d_f ∝ card_f^{-α}``).  The original paper
#: derives the rule from frequency; like the CAFE paper notes, the public
#: implementation uses field cardinality as the proxy.
TEMPERATURE = 0.3


class MixedDimensionEmbedding(TableBackedEmbedding):
    """Per-field narrow embeddings with learned projections to a common dim.

    Parameters
    ----------
    field_cardinalities:
        Number of unique features per field; features are addressed by global
        id (field offsets applied by the caller) exactly like the row-
        compression methods, so MDE is a drop-in replacement in the models.
    """

    def __init__(
        self,
        field_cardinalities: list[int],
        dim: int,
        field_dims: list[int],
        rng: SeedLike = None,
        **table,
    ):
        super().__init__(int(sum(field_cardinalities)), dim, **table)
        if len(field_dims) != len(field_cardinalities):
            raise ValueError("field_dims and field_cardinalities must have the same length")
        if any(d <= 0 for d in field_dims):
            raise ValueError("every field dimension must be positive")
        if any(d > dim for d in field_dims):
            raise ValueError("field dimensions cannot exceed the output dimension")
        generator = make_rng(rng)
        self.field_cardinalities = [int(c) for c in field_cardinalities]
        self.field_dims = [int(d) for d in field_dims]
        self.field_offsets = np.concatenate([[0], np.cumsum(self.field_cardinalities)]).astype(np.int64)

        self.tables = [
            embedding_uniform((card, fdim), generator, dtype=self.dtype)
            for card, fdim in zip(self.field_cardinalities, self.field_dims)
        ]
        # Identity-like projection when the field already has full width.
        self.projections = [
            np.eye(dim, dtype=self.dtype)
            if fdim == dim
            else xavier_uniform((fdim, dim), generator, dtype=self.dtype)
            for fdim in self.field_dims
        ]
        self._table_optimizers = [self._new_row_optimizer(table) for table in self.tables]
        self.projection_lr = self.learning_rate * 0.1

    # ------------------------------------------------------------------ #
    # Budget-driven construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_budget(
        cls,
        budget: MemoryBudget,
        field_cardinalities: list[int],
        **kwargs,
    ) -> "MixedDimensionEmbedding":
        """Choose per-field dimensions so the total memory fits ``budget``.

        Field widths follow the MDE popularity rule ``d_f ∝ card_f^{-α}`` and
        are then uniformly scaled (and clipped to ≥ 1) until rows plus
        projection matrices fit the budget.
        """
        n = sum(field_cardinalities)
        if n != budget.num_features:
            raise ValueError("field cardinalities do not sum to the budgeted feature count")
        dim = budget.dim
        cards = np.asarray(field_cardinalities, dtype=np.float64)
        base = (cards / cards.min()) ** (-TEMPERATURE)

        def total_memory(scale: float) -> tuple[int, list[int]]:
            dims = np.maximum(1, np.floor(scale * base * dim)).astype(int)
            dims = np.minimum(dims, dim)
            rows = int((cards * dims).sum())
            proj = int(sum(d * dim for d in dims if d != dim))
            return rows + proj, dims.tolist()

        minimum, _ = total_memory(scale=1.0 / dim)  # every field at width 1
        if minimum > budget.total_floats:
            raise MemoryBudgetError(
                f"MDE needs at least one column per feature ({minimum} floats) but the budget "
                f"is {budget.total_floats} (CR {budget.compression_ratio:.0f}x)"
            )
        # Binary search the largest scale that fits.
        low, high = 1.0 / dim, 1.0
        best_dims = None
        for _ in range(40):
            mid = (low + high) / 2
            memory, dims = total_memory(mid)
            if memory <= budget.total_floats:
                best_dims = dims
                low = mid
            else:
                high = mid
        if best_dims is None:
            _, best_dims = total_memory(1.0 / dim)
        return cls(list(field_cardinalities), dim, field_dims=best_dims, **kwargs)

    # ------------------------------------------------------------------ #
    # Lookup / update
    # ------------------------------------------------------------------ #
    def routes(self, uids: np.ndarray) -> dict[str, np.ndarray]:
        # Sorted ids are sorted by field: each field owns one contiguous slice.
        return {"bounds": np.searchsorted(uids, self.field_offsets)}

    @staticmethod
    def _field_slices(routes: dict[str, np.ndarray]):
        """Yield ``(field_index, slice_of_uids)`` for the fields present."""
        bounds = routes["bounds"]
        for field_index in np.flatnonzero(bounds[1:] > bounds[:-1]):
            yield int(field_index), slice(int(bounds[field_index]), int(bounds[field_index + 1]))

    def gather(self, uids: np.ndarray, routes: dict[str, np.ndarray]) -> np.ndarray:
        """Gather from the owning field's reduced-dimension table and project
        up to ``dim`` with the field's projection matrix.
        """
        out = np.empty((uids.shape[0], self.dim), dtype=self.dtype)
        for field_index, span in self._field_slices(routes):
            local = uids[span] - self.field_offsets[field_index]
            out[span] = self.tables[field_index][local] @ self.projections[field_index]
        return out

    def apply(
        self, plan: RoutingPlan, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray
    ) -> None:
        """Back-project each gradient sum through the field's projection matrix
        and scatter it into the field's reduced-dimension table (the
        projection matrices themselves also receive gradients).
        """
        for field_index, span in self._field_slices(plan.routes):
            table = self.tables[field_index]
            projection = self.projections[field_index]
            local = uids[span] - self.field_offsets[field_index]
            grad_out = grad_sums[span]
            rows = table[local]
            # Backprop through "row @ projection".
            grad_rows = grad_out @ projection.T
            grad_projection = rows.T @ grad_out
            update_rows(self._table_optimizers[field_index], table, local, grad_rows)
            if self.field_dims[field_index] != self.dim:
                projection -= self.projection_lr * grad_projection
        self._step += 1

    def memory_floats(self) -> int:
        """Per-field reduced tables plus their projection matrices."""
        rows = sum(table.size for table in self.tables)
        proj = sum(
            proj.size for proj, fdim in zip(self.projections, self.field_dims) if fdim != self.dim
        )
        return int(rows + proj)
