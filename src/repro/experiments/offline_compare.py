"""Figure 14 — CAFE versus offline feature separation.

The offline oracle makes a full statistics pass over the training data,
splits hot/non-hot by exact frequency, and never adapts.  The paper shows the
two reach nearly identical quality (the oracle is slightly ahead early in
training before HotSketch warms up), which validates the sketch-based online
separation.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import build_dataset, get_scale, run_single
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
    dataset = build_dataset("criteo", scale=scale, seed=seeds[0])
    for method in ("cafe", "offline"):
        for ratio in compression_ratios:
            losses, aucs = [], []
            curve = None
            for seed in seeds:
                outcome = run_single(
                    dataset,
                    method,
                    ratio,
                    scale=scale,
                    seed=seed,
                    eval_every=eval_every if ratio == iteration_ratio else None,
                )
                losses.append(outcome.train_loss)
                aucs.append(outcome.test_auc)
                if ratio == iteration_ratio and curve is None:
                    curve = outcome.history.smoothed_losses()
            result.add_row(
                method=method,
                compression_ratio=ratio,
                train_loss=round(float(np.mean(losses)), 4),
                test_auc=round(float(np.mean(aucs)), 4),
            )
            if curve is not None:
                result.extras[f"{method}_loss_curve_cr{int(iteration_ratio)}"] = curve
    result.add_note(
        "the offline oracle is not deployable (it needs a full statistics pass and cannot adapt online); "
        "matching it validates HotSketch's online separation"
    )
    return result
