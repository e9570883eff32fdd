"""Figure 14 — CAFE versus offline feature separation.

The offline oracle makes a full statistics pass over the training data,
splits hot/non-hot by exact frequency, and never adapts.  The paper shows the
two reach nearly identical quality (the oracle is slightly ahead early in
training before HotSketch warms up), which validates the sketch-based online
separation.
"""

from __future__ import annotations

from repro.experiments.common import RunConfig, World, mean_curve, mean_rows, run_paired
from repro.experiments.reporting import ExperimentResult


def run_fig14_offline_separation(
    scale: str = "tiny",
    seeds: tuple[int, ...] = (0,),
    compression_ratios: tuple[float, ...] = (10.0, 100.0, 500.0),
    iteration_ratio: float = 100.0,
    eval_every: int = 20,
) -> ExperimentResult:
    """CAFE vs the frequency-oracle offline split on the Criteo preset."""
    result = ExperimentResult(
        experiment_id="fig14",
        title="CAFE vs. offline feature separation (Criteo)",
    )
    configs = [
        RunConfig(method, ratio, eval_every=eval_every if ratio == iteration_ratio else None)
        for method in ("cafe", "offline")
        for ratio in compression_ratios
    ]
    outcomes = run_paired(World("criteo"), configs, scale, seeds)
    for config, row in mean_rows(outcomes).items():
        result.add_row(
            method=config.method,
            compression_ratio=config.compression_ratio,
            train_loss=row["train_loss"],
            test_auc=row["test_auc"],
        )
        if config.compression_ratio == iteration_ratio:
            result.extras[f"{config.method}_loss_curve_cr{int(iteration_ratio)}"] = mean_curve(
                outcomes, config
            )
    result.add_note(
        "the offline oracle is not deployable (it needs a full statistics pass and cannot adapt online); "
        "matching it validates HotSketch's online separation"
    )
    return result
