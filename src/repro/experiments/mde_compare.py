"""Figure 12 — comparison with MDE (column compression).

MDE keeps one (narrow) row per feature, so its compression ratio is bounded
by the embedding dimension and its accuracy collapses once the per-feature
width approaches one column; CAFE and the Hash baseline are row-compression
methods without that bound.  The runner sweeps compression ratios and records
the AUC / loss of MDE, Hash and CAFE side by side.
"""

from __future__ import annotations

from repro.experiments.common import World, grid, mean_rows, run_paired
from repro.experiments.reporting import ExperimentResult


def run_fig12_mde(
    scale: str = "tiny",
    seeds: tuple[int, ...] = (0,),
    datasets: tuple[str, ...] = ("criteo", "criteotb"),
    methods: tuple[str, ...] = ("hash", "mde", "cafe"),
    compression_ratios: tuple[float, ...] = (2.0, 5.0, 10.0, 50.0, 100.0),
) -> ExperimentResult:
    """AUC / loss vs CR for MDE against Hash and CAFE."""
    result = ExperimentResult(
        experiment_id="fig12",
        title="Comparison with MDE (column compression)",
    )
    configs = grid(sorted(methods), sorted(compression_ratios))
    for dataset_name in datasets:
        rows = mean_rows(run_paired(World(dataset_name), configs, scale, seeds))
        for row in rows.values():
            result.add_row(dataset=dataset_name, **row)
    result.add_note(
        "MDE becomes infeasible once the budget drops below one column per feature "
        "(compression ratio close to the embedding dimension)"
    )
    return result
