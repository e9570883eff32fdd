"""Figure 15 — configuration sensitivity of CAFE (Criteo, 1000× in the paper).

Four panels:

* (a) the "hot percentage" — the fraction of the memory budget spent on the
  sketch plus exclusive rows (best around 0.7);
* (b) the hot threshold (too low → churn, too high → wasted exclusive rows);
* (c) the decay coefficient of the sketch scores;
* (d) design details: one exclusive table for all fields vs. one per field,
  and gradient-norm importance vs. raw frequency.

The reproduction sweeps the same knobs at a compression ratio where the
scaled dataset still has a meaningful number of exclusive rows.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import build_dataset, run_single
from repro.experiments.reporting import ExperimentResult


def run_fig15_sensitivity(
    scale: str = "tiny",
    seeds: tuple[int, ...] = (0,),
    compression_ratio: float = 100.0,
    hot_percentages: tuple[float, ...] = (0.4, 0.5, 0.7, 0.9),
    thresholds: tuple[float, ...] = (5.0, 50.0, 500.0),
    decays: tuple[float, ...] = (0.9, 0.98, 1.0),
) -> ExperimentResult:
    """Sweep CAFE's configuration knobs on the Criteo preset."""
    result = ExperimentResult(
        experiment_id="fig15",
        title="Configuration sensitivity of CAFE (Criteo)",
    )
    dataset = build_dataset("criteo", scale=scale, seed=seeds[0])

    def averaged(embedding_kwargs):
        losses, aucs = [], []
        for seed in seeds:
            outcome = run_single(
                dataset,
                "cafe",
                compression_ratio,
                scale=scale,
                seed=seed,
                embedding_kwargs=embedding_kwargs,
            )
            losses.append(outcome.train_loss)
            aucs.append(outcome.test_auc)
        return float(np.mean(losses)), float(np.mean(aucs))

    # (a) memory split between hot (sketch + exclusive rows) and shared table.
    for hot_pct in hot_percentages:
        loss, auc = averaged({"hot_percentage": hot_pct})
        result.add_row(panel="hot_percentage", value=hot_pct, train_loss=round(loss, 4), test_auc=round(auc, 4))

    # (b) fixed hot thresholds (versus the adaptive default).
    for threshold in thresholds:
        loss, auc = averaged({"hot_threshold": threshold})
        result.add_row(panel="threshold", value=threshold, train_loss=round(loss, 4), test_auc=round(auc, 4))
    loss, auc = averaged({})
    result.add_row(panel="threshold", value="adaptive", train_loss=round(loss, 4), test_auc=round(auc, 4))

    # (c) decay coefficient of the sketch scores.
    for decay in decays:
        loss, auc = averaged({"decay": decay})
        result.add_row(panel="decay", value=decay, train_loss=round(loss, 4), test_auc=round(auc, 4))

    # (d) design details: gradient-norm importance vs. raw frequency.
    loss, auc = averaged({"use_frequency": False})
    result.add_row(panel="design", value="gradient_norm", train_loss=round(loss, 4), test_auc=round(auc, 4))
    loss, auc = averaged({"use_frequency": True})
    result.add_row(panel="design", value="frequency", train_loss=round(loss, 4), test_auc=round(auc, 4))
    result.add_note(
        "panel (d)'s one-table-vs-per-field comparison is implicit: this implementation always uses a "
        "single exclusive table shared by all fields, the design the paper finds superior"
    )
    return result
