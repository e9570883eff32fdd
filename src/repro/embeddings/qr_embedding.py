"""Quotient-Remainder trick (Shi et al., KDD 2020) — compositional embeddings.

Each feature id is decomposed into a quotient and a remainder with respect to
a modulus close to sqrt(n); the final embedding is the sum of one row from a
"quotient" table and one from a "remainder" table.  Collisions only occur
when *both* components collide, which greatly reduces the effective collision
rate compared to the single-hash baseline, at the cost of a hard floor on the
memory: the two complementary tables must jointly cover the id space, which
is why the paper reports Q-R can only reach roughly 500× compression on
Criteo (§5.2.1).
"""

from __future__ import annotations

import math

import numpy as np

from repro.embeddings.base import TableBackedEmbedding, update_rows
from repro.embeddings.memory import MemoryBudget
from repro.embeddings.plan import RoutingPlan
from repro.errors import MemoryBudgetError
from repro.nn.init import embedding_uniform
from repro.utils.rng import SeedLike, make_rng


class QRTrickEmbedding(TableBackedEmbedding):
    """Compositional embedding with complementary quotient/remainder tables,
    composed by addition (the composition every comparison here uses)."""

    def __init__(
        self,
        num_features: int,
        dim: int,
        num_remainder_rows: int,
        rng: SeedLike = None,
        **table,
    ):
        super().__init__(num_features, dim, **table)
        if num_remainder_rows <= 0:
            raise ValueError(f"num_remainder_rows must be positive, got {num_remainder_rows}")
        generator = make_rng(rng)
        self.num_remainder_rows = int(min(num_remainder_rows, num_features))
        self.num_quotient_rows = int(math.ceil(num_features / self.num_remainder_rows))
        self.quotient_table = embedding_uniform(
            (self.num_quotient_rows, dim), generator, dtype=self.dtype
        )
        self.remainder_table = embedding_uniform(
            (self.num_remainder_rows, dim), generator, dtype=self.dtype
        )
        self._quotient_optimizer = self._new_row_optimizer(self.quotient_table)
        self._remainder_optimizer = self._new_row_optimizer(self.remainder_table)

    # ------------------------------------------------------------------ #
    # Construction from a budget
    # ------------------------------------------------------------------ #
    @classmethod
    def from_budget(cls, budget: MemoryBudget, **kwargs) -> "QRTrickEmbedding":
        """Pick the remainder-table size so both tables fit in ``budget``.

        The total rows ``r + ceil(n / r)`` is minimized at ``r = sqrt(n)``;
        if even that minimum exceeds the budget the method structurally
        cannot reach the requested compression ratio.
        """
        n, dim = budget.num_features, budget.dim
        max_rows = budget.total_floats // dim
        best_r = None
        sqrt_n = int(math.isqrt(n))
        min_total = 2 * math.ceil(math.sqrt(n))
        if min_total > max_rows:
            raise MemoryBudgetError(
                f"Q-R trick needs at least {min_total * dim} floats for {n} features "
                f"but the budget is {budget.total_floats} (CR {budget.compression_ratio:.0f}x)"
            )
        # The largest r with r + ceil(n/r) <= max_rows gives the lowest collision
        # rate, so search outward from sqrt(n) upward.
        for r in range(max(sqrt_n, 1), max_rows + 1):
            if r + math.ceil(n / r) <= max_rows:
                best_r = r
            else:
                if best_r is not None:
                    break
        if best_r is None:
            # Fall back to the memory-minimizing split.
            best_r = max(sqrt_n, 1)
        return cls(n, dim, num_remainder_rows=best_r, **kwargs)

    # ------------------------------------------------------------------ #
    # Lookup / update
    # ------------------------------------------------------------------ #
    def _decompose(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        remainder = ids % self.num_remainder_rows
        quotient = ids // self.num_remainder_rows
        return quotient, remainder

    def routes(self, uids: np.ndarray) -> dict[str, np.ndarray]:
        quotient, remainder = self._decompose(uids)
        return {"quotient": quotient, "remainder": remainder}

    def gather(self, uids: np.ndarray, routes: dict[str, np.ndarray]) -> np.ndarray:
        """Compose each embedding as quotient-table row + remainder-table row
        (the Q-R trick), so distinct ids rarely share the full sum.
        """
        q_vec = self.quotient_table[routes["quotient"]]
        r_vec = self.remainder_table[routes["remainder"]]
        return q_vec + r_vec

    def apply(
        self, plan: RoutingPlan, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray
    ) -> None:
        """Scatter each id's gradient sum into both its quotient and its
        remainder row (the gradient of a sum reaches both terms unchanged).
        """
        quotient, remainder = plan.routes["quotient"], plan.routes["remainder"]
        update_rows(self._quotient_optimizer, self.quotient_table, quotient, grad_sums)
        update_rows(self._remainder_optimizer, self.remainder_table, remainder, grad_sums)
        self._step += 1

    def memory_floats(self) -> int:
        """Quotient plus remainder tables; no auxiliary structures."""
        return int(self.quotient_table.size + self.remainder_table.size)
