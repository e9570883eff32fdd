"""Figure 16 — multi-level hash embedding (CAFE vs CAFE-ML) on Criteo."""

from __future__ import annotations

from repro.experiments.common import World, grid, mean_rows, run_paired
from repro.experiments.reporting import ExperimentResult


def run_fig16_multilevel(
    scale: str = "tiny",
    seeds: tuple[int, ...] = (0,),
    compression_ratios: tuple[float, ...] = (10.0, 50.0, 100.0, 500.0),
) -> ExperimentResult:
    """AUC / loss vs CR for CAFE and its 2-level variant."""
    result = ExperimentResult(
        experiment_id="fig16",
        title="Multi-level hash embedding on Criteo (CAFE vs CAFE-ML)",
    )
    configs = grid(["cafe", "cafe_ml"], sorted(compression_ratios))
    for row in mean_rows(run_paired(World("criteo"), configs, scale, seeds)).values():
        result.add_row(**row)
    result.add_note(
        "CAFE-ML assigns medium-importance features two pooled hash embeddings and cold features one; "
        "the paper reports ~0.08% AUC gain, largest at small compression ratios"
    )
    return result
