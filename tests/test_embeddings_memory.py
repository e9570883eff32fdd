"""Tests for the memory-budget arithmetic shared by all compression methods."""

import pytest

from repro.embeddings.memory import MemoryBudget
from repro.errors import MemoryBudgetError


class TestMemoryBudget:
    def test_from_compression_ratio(self):
        budget = MemoryBudget.from_compression_ratio(num_features=10_000, dim=16, compression_ratio=10)
        assert budget.total_floats == 16_000
        assert budget.uncompressed_floats == 160_000
        assert budget.compression_ratio == pytest.approx(10.0)

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError):
            MemoryBudget.from_compression_ratio(100, 16, 0.5)

    def test_minimum_one_row(self):
        budget = MemoryBudget.from_compression_ratio(100, 16, 1_000_000)
        assert budget.total_floats == 16  # floor: one embedding row

    def test_rows_with_overhead(self):
        budget = MemoryBudget(num_features=1000, dim=8, total_floats=100)
        assert budget.rows(overhead_floats=20) == 10

    def test_rows_insufficient(self):
        budget = MemoryBudget(num_features=1000, dim=8, total_floats=10)
        with pytest.raises(MemoryBudgetError):
            budget.rows(overhead_floats=5)
