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

from repro.experiments.common import RunConfig, World, mean_rows, run_paired
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
    # (panel, value, CAFE keywords): (a) the memory split between hot (sketch +
    # exclusive rows) and shared table, (b) fixed hot thresholds against the
    # adaptive default, (c) the decay coefficient of the sketch scores, and
    # (d) gradient-norm importance against raw frequency.
    settings = [
        *(("hot_percentage", hot_pct, {"hot_percentage": hot_pct}) for hot_pct in hot_percentages),
        *(("threshold", threshold, {"hot_threshold": threshold}) for threshold in thresholds),
        ("threshold", "adaptive", {}),
        *(("decay", decay, {"decay": decay}) for decay in decays),
        ("design", "gradient_norm", {"use_frequency": False}),
        ("design", "frequency", {"use_frequency": True}),
    ]
    configs = [
        RunConfig("cafe", compression_ratio, embedding_kwargs=tuple(kwargs.items()))
        for _, _, kwargs in settings
    ]
    rows = mean_rows(run_paired(World("criteo"), configs, scale, seeds))
    for (panel, value, _), config in zip(settings, configs):
        row = rows[config]
        result.add_row(panel=panel, value=value, train_loss=row["train_loss"], test_auc=row["test_auc"])
    result.add_note(
        "panel (d)'s one-table-vs-per-field comparison is implicit: this implementation always uses a "
        "single exclusive table shared by all fields, the design the paper finds superior"
    )
    return result
