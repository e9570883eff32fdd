"""Compression-ratio sweep: regenerate a miniature version of Figure 8.

Sweeps every embedding-compression method across compression ratios on the
Criteo preset and prints the testing-AUC / training-loss table, marking the
ratios at which each method becomes structurally infeasible (Q-R's
complementary tables, AdaEmbed's per-feature scores, MDE's one-column floor).

Run with:  python examples/compression_sweep.py
"""

from __future__ import annotations

from repro.experiments import World, format_table, grid, mean_rows, run_paired

METHODS = ["full", "hash", "qr", "adaembed", "mde", "cafe", "cafe_ml"]
RATIOS = [1.0, 5.0, 20.0, 100.0, 500.0]


def main() -> None:
    world = World("criteo")
    schema = world.build("tiny", seed=0).schema
    print(
        f"dataset: {schema.name} preset, {schema.num_features} features, "
        f"{schema.num_days - 1} training days"
    )
    outcomes = run_paired(world, grid(METHODS, RATIOS, "dlrm"), scale="tiny", seeds=(0,))

    rows = []
    for row in mean_rows(outcomes).values():
        if not row["feasible"]:
            row["train_loss"] = "-"
            row["test_auc"] = "infeasible"
        rows.append(row)
    print(format_table(rows))

    print()
    print("Expected shape (mirrors the paper's Figure 8): only CAFE and Hash reach the")
    print("largest ratios; Q-R stops near sqrt(n); AdaEmbed stops near the embedding")
    print("dimension; CAFE stays closest to the uncompressed ideal as the ratio grows.")


if __name__ == "__main__":
    main()
