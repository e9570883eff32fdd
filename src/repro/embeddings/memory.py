"""Memory budgeting shared by all compression methods.

The paper frames compression as an optimization under a memory constraint
``M(E*) ≤ M`` (Equation 2) and reports results against the *compression
ratio* ``CR = M(E) / M(E*)``.  This module turns a requested compression
ratio into a float32-parameter budget and provides the arithmetic each method
uses to size its internal tables, raising :class:`MemoryBudgetError` when a
method's structural floor makes the budget unreachable (e.g. AdaEmbed's
per-feature score array or the Q-R trick's complementary tables).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryBudgetError


@dataclass(frozen=True)
class MemoryBudget:
    """A memory budget for one embedding layer.

    Attributes
    ----------
    num_features:
        Total number of unique categorical features (``n`` in the paper).
    dim:
        Embedding dimension (``d``).
    total_floats:
        Budget in float32-equivalent parameters (``M``).
    """

    num_features: int
    dim: int
    total_floats: int

    @classmethod
    def from_compression_ratio(cls, num_features: int, dim: int, compression_ratio: float) -> "MemoryBudget":
        if compression_ratio < 1:
            raise ValueError(f"compression ratio must be ≥ 1, got {compression_ratio}")
        uncompressed = num_features * dim
        budget = int(uncompressed / compression_ratio)
        if budget < dim:
            # Any method needs at least one embedding row to function.
            budget = dim
        return cls(num_features=num_features, dim=dim, total_floats=budget)

    @property
    def uncompressed_floats(self) -> int:
        return self.num_features * self.dim

    @property
    def compression_ratio(self) -> float:
        return self.uncompressed_floats / max(self.total_floats, 1)

    def rows(self, overhead_floats: int = 0) -> int:
        """How many ``dim``-wide rows fit after subtracting ``overhead_floats``."""
        available = self.total_floats - overhead_floats
        if available < self.dim:
            raise MemoryBudgetError(
                f"memory budget of {self.total_floats} floats cannot hold a single "
                f"{self.dim}-dim embedding row after {overhead_floats} floats of overhead"
            )
        return available // self.dim
