"""Ablations of CAFE's design choices beyond the paper's Figure 15.

The paper motivates several design decisions that Figure 15 only partially
quantifies.  These runners isolate them end to end on the Criteo preset:

* ``slots-per-bucket`` — Corollary 3.5 predicts an optimum trade-off between
  few large buckets and many small ones at fixed sketch memory; Figure 18(a)
  measures it on raw streams, this ablation measures its end-to-end effect on
  model quality.
* ``migration`` — disabling demotion/eviction handling reduces CAFE to a
  "first features to cross the threshold keep their rows forever" scheme,
  quantifying how much the adaptive migration of §3.3 actually contributes.
* ``decay`` — with no score decay the sketch never forgets, which hurts under
  distribution drift.
"""

from __future__ import annotations

import inspect

from repro.embeddings.cafe import CafeEmbedding
from repro.experiments.common import RunConfig, World, get_scale, mean_rows, run_paired
from repro.experiments.reporting import ExperimentResult


def run_ablation_slots_per_bucket(
    scale: str = "tiny",
    seeds: tuple[int, ...] = (0,),
    compression_ratio: float = 50.0,
    slots_options: tuple[int, ...] = (1, 2, 4, 8),
) -> ExperimentResult:
    """End-to-end model quality as a function of HotSketch's slots per bucket."""
    result = ExperimentResult(
        experiment_id="ablation_slots",
        title="CAFE ablation: HotSketch slots per bucket (fixed sketch memory)",
    )
    configs = [
        RunConfig("cafe", compression_ratio, embedding_kwargs=(("slots_per_bucket", slots),))
        for slots in slots_options
    ]
    rows = mean_rows(run_paired(World("criteo"), configs, scale, seeds))
    for slots, config in zip(slots_options, configs):
        row = rows[config]
        result.add_row(slots_per_bucket=slots, train_loss=row["train_loss"], test_auc=row["test_auc"])
    result.add_note("the paper adopts 4 slots per bucket as the recall/throughput sweet spot (§5.6)")
    return result


def run_ablation_adaptivity(
    scale: str = "tiny",
    seeds: tuple[int, ...] = (0,),
    compression_ratio: float = 50.0,
    drift_swap_fraction: float = 0.15,
) -> ExperimentResult:
    """Contribution of migration and decay under strong distribution drift."""
    result = ExperimentResult(
        experiment_id="ablation_adaptivity",
        title="CAFE ablation: migration and decay under distribution drift",
    )
    spec = get_scale(scale)
    variants = {
        # Full CAFE: adaptive threshold, frequent rebalance, decaying scores.
        "cafe": RunConfig("cafe", compression_ratio),
        # No decay: scores accumulate forever, old hot features never fade.
        "cafe_no_decay": RunConfig("cafe", compression_ratio, embedding_kwargs=(("decay", 1.0),)),
        # Frozen assignment: an absurdly long rebalance interval means features
        # that grab exclusive rows early keep them regardless of later drift.
        "cafe_no_migration": RunConfig(
            "cafe",
            compression_ratio,
            embedding_kwargs=(("rebalance_interval", 10_000_000), ("hot_threshold", 1.0)),
        ),
        # Static hash baseline for reference.
        "hash": RunConfig("hash", compression_ratio),
    }
    world = World("criteo", swap_fraction=drift_swap_fraction)
    outcomes = run_paired(world, list(variants.values()), scale, seeds)
    rows = mean_rows(outcomes)
    for name, config in variants.items():
        row = rows[config]
        result.add_row(variant=name, train_loss=row["train_loss"], test_auc=row["test_auc"])
    result.add_note(
        f"stream uses an amplified drift (swap fraction {drift_swap_fraction}); "
        f"{spec.samples_per_day} samples/day"
    )
    steps = max(len(outcomes[variants["cafe"], seed].history.losses) for seed in seeds)
    decay_interval = inspect.signature(CafeEmbedding).parameters["decay_interval"].default
    if steps < decay_interval:
        result.add_note(
            f"no decay fired: a run is {steps} steps and CAFE decays every {decay_interval}, "
            "so cafe_no_decay repeats cafe's run"
        )
    return result
