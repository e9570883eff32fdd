"""Online training under distribution drift — the scenario CAFE targets.

The paper's key claim of *adaptability* (§3.3, Figure 17) is that CAFE keeps
tracking the hot features as the data distribution changes during online
training, migrating embeddings between the exclusive and shared tables.  This
example constructs a stream whose feature popularity ranking rotates sharply
between days, trains CAFE and the static Hash baseline on it, and reports:

* the per-day online training loss of both methods,
* CAFE's migration activity (promotions / demotions) per day,
* the recall of HotSketch against the day's true top-k features.

Run with:  python examples/online_training_drift.py
"""

from __future__ import annotations

import numpy as np

from repro.data import RotatingDrift, SyntheticConfig, SyntheticCTRDataset, make_preset
from repro.embeddings import create_embedding
from repro.models import create_model
from repro.training import Trainer, recall_at_k

COMPRESSION_RATIO = 50.0
BATCH_SIZE = 128
SEED = 7


def build(method: str, dataset: SyntheticCTRDataset):
    schema = dataset.schema
    embedding = create_embedding(
        method,
        num_features=schema.num_features,
        dim=schema.embedding_dim,
        compression_ratio=COMPRESSION_RATIO,
        optimizer="adagrad",
        learning_rate=0.1,
        rng=np.random.default_rng(SEED),
    )
    model = create_model(
        "dlrm", embedding, schema.num_fields, schema.num_numerical, rng=np.random.default_rng(SEED + 1)
    )
    return embedding, Trainer(model)


def main() -> None:
    schema = make_preset("criteo", base_cardinality=300, seed=SEED)
    schema.num_days = 6
    # A strong drift model: 20% of the popularity ranking is reshuffled per day.
    drift = RotatingDrift(swap_fraction=0.2, seed=SEED)
    dataset = SyntheticCTRDataset(
        schema, config=SyntheticConfig(samples_per_day=3000, seed=SEED), drift=drift
    )

    cafe_embedding, cafe_trainer = build("cafe", dataset)
    hash_embedding, hash_trainer = build("hash", dataset)

    print(f"online training with drift: {schema.num_days - 1} training days, CR={COMPRESSION_RATIO:.0f}x")
    print(f"{'day':>4} {'hash loss':>11} {'cafe loss':>11} {'migrations in/out':>19} {'hot recall':>11}")

    day_counts = np.zeros(schema.num_features)
    for day in dataset.train_days:
        hash_losses, cafe_losses = [], []
        migrations_before = (cafe_embedding.migrations_in, cafe_embedding.migrations_out)
        day_counts[:] = 0.0
        for batch in dataset.day_batches(day, BATCH_SIZE):
            hash_losses.append(hash_trainer.train_step(batch))
            cafe_losses.append(cafe_trainer.train_step(batch))
            np.add.at(day_counts, batch.categorical.reshape(-1), 1.0)

        k = cafe_embedding.num_hot_rows
        true_top = np.argsort(day_counts)[::-1][:k]
        reported = cafe_embedding.sketch.top_k(k)
        recall = recall_at_k(true_top, reported)
        promoted = cafe_embedding.migrations_in - migrations_before[0]
        demoted = cafe_embedding.migrations_out - migrations_before[1]
        print(
            f"{day:>4} {np.mean(hash_losses):>11.4f} {np.mean(cafe_losses):>11.4f} "
            f"{promoted:>9d}/{demoted:<9d} {recall:>11.2%}"
        )

    test_batch = dataset.test_batch(2048)
    print()
    print(f"final test AUC  hash: {hash_trainer.evaluate_auc(test_batch):.4f}  "
          f"cafe: {cafe_trainer.evaluate_auc(test_batch):.4f}")
    print(f"exclusive-row occupancy: {cafe_embedding.hot_occupancy():.1%} "
          f"({cafe_embedding.num_hot_features()} of {cafe_embedding.num_hot_rows} rows)")


if __name__ == "__main__":
    main()
