"""Distribution-shift experiments: Figure 2 and Figure 17.

Figure 2 plots, for Avazu / Criteo / CriteoTB, the KL divergence between the
feature distributions of every pair of days; divergence grows with the number
of days between the two distributions.  Figure 17 trains on CriteoTB-1/3 — a
version of CriteoTB keeping every third day — whose larger day-to-day shift
stresses the adaptive methods (CAFE, AdaEmbed) against the static ones.
"""

from __future__ import annotations

import numpy as np

from repro.data.stats import kl_divergence_matrix
from repro.experiments.common import (
    RunConfig,
    World,
    build_dataset,
    get_scale,
    mean_curve,
    mean_rows,
    run_paired,
)
from repro.experiments.reporting import ExperimentResult


def run_fig2_kl_divergence(
    scale: str = "tiny",
    seed: int = 0,
    datasets: tuple[str, ...] = ("avazu", "criteo", "criteotb"),
    max_days: int = 8,
) -> ExperimentResult:
    """KL-divergence heatmaps between per-day feature distributions."""
    result = ExperimentResult(
        experiment_id="fig2",
        title="KL divergence between distributions on each day",
    )
    for name in datasets:
        dataset = build_dataset(name, scale=scale, seed=seed)
        days = min(dataset.num_days, max_days)
        dataset.schema.num_days = days
        histograms = dataset.day_histograms()
        matrix = kl_divergence_matrix(histograms)
        result.extras[f"{name}_kl_matrix"] = matrix
        for i in range(days):
            for j in range(days):
                if i != j:
                    result.add_row(dataset=name, day_i=i, day_j=j, kl=round(float(matrix[i, j]), 4))
        # Summary statistic the figure conveys: KL grows with the day gap.
        gaps = {}
        for i in range(days):
            for j in range(days):
                if i != j:
                    gaps.setdefault(abs(i - j), []).append(matrix[i, j])
        mean_by_gap = {gap: float(np.mean(values)) for gap, values in gaps.items()}
        result.extras[f"{name}_mean_kl_by_gap"] = mean_by_gap
        result.add_note(
            f"{name}: mean KL for adjacent days {mean_by_gap.get(1, float('nan')):.4f}, "
            f"for the largest gap {mean_by_gap.get(days - 1, float('nan')):.4f}"
        )
    return result


def run_fig17_drift_shift(
    scale: str = "tiny",
    seeds: tuple[int, ...] = (0,),
    methods: tuple[str, ...] = ("hash", "cafe", "adaembed"),
    compression_ratios: tuple[float, ...] = (5.0, 10.0, 50.0),
    iteration_ratio: float = 50.0,
) -> ExperimentResult:
    """CriteoTB-1/3: keep every third day to amplify distribution shift."""
    result = ExperimentResult(
        experiment_id="fig17",
        title="Experiments on CriteoTB-1/3 (stronger distribution shift)",
    )
    spec = get_scale(scale)
    # The day count is the scaled preset's; no seed changes it.
    full_days = build_dataset("criteotb", scale=scale).num_days
    # Keep days 0, 3, 6, ... plus the original last day as the test day,
    # mirroring the paper's "days 1,4,7,...,22 + unchanged test data".
    subsampled = tuple(range(0, full_days - 1, 3))
    configs = [
        RunConfig(method, ratio, days=subsampled) for method in methods for ratio in compression_ratios
    ]
    outcomes = run_paired(World("criteotb"), configs, scale, seeds)
    for config, row in mean_rows(outcomes).items():
        if not row["feasible"]:
            result.add_row(method=config.method, compression_ratio=config.compression_ratio, feasible=False)
            continue
        result.add_row(
            method=config.method,
            compression_ratio=config.compression_ratio,
            train_loss=row["train_loss"],
            test_auc=row["test_auc"],
            feasible=True,
        )
        if config.compression_ratio == iteration_ratio:
            result.extras[f"{config.method}_loss_curve"] = mean_curve(outcomes, config)
    result.add_note(
        f"training days subsampled 1-in-3 from {full_days} days; test day unchanged "
        f"({spec.samples_per_day} samples/day)"
    )
    return result
