"""Fault tolerance: checkpointing and resuming CAFE training.

The paper registers HotSketch's state as module buffers so that "the states
can be saved and loaded alongside model parameters" and training can resume
from checkpoints (§4).  This example trains for a few days, saves both the
dense parameters and the CAFE state (tables, free rows, sketch contents,
threshold) to an ``.npz`` file, restores everything into fresh objects, and
verifies the restored model picks up training exactly where it left off.

Run with:  python examples/checkpoint_resume.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.data import SyntheticConfig, SyntheticCTRDataset, make_preset
from repro.embeddings import CafeEmbedding, create_embedding
from repro.models import create_model
from repro.training import Trainer

BATCH_SIZE = 128
SEED = 5


def save_checkpoint(path: Path, model, embedding: CafeEmbedding) -> None:
    """Serialize dense parameters and the CAFE/sketch state into one npz file."""
    payload = {}
    for name, value in model.state_dict().items():
        payload[f"dense/{name}"] = value
    for name, value in embedding.state_dict().items():
        payload[f"sparse/{name}"] = value
    np.savez(path, **payload)


def load_checkpoint(path: Path, model, embedding: CafeEmbedding) -> None:
    with np.load(path) as data:
        dense = {k[len("dense/"):]: data[k] for k in data.files if k.startswith("dense/")}
        sparse = {k[len("sparse/"):]: data[k] for k in data.files if k.startswith("sparse/")}
    model.load_state_dict(dense)
    embedding.load_state_dict(sparse)


def build(dataset, seed=SEED):
    schema = dataset.schema
    embedding = create_embedding(
        "cafe",
        num_features=schema.num_features,
        dim=schema.embedding_dim,
        compression_ratio=50.0,
        optimizer="adagrad",
        learning_rate=0.1,
        rng=np.random.default_rng(seed),
    )
    model = create_model(
        "dlrm", embedding, schema.num_fields, schema.num_numerical, rng=np.random.default_rng(seed + 1)
    )
    return embedding, model


def main() -> None:
    schema = make_preset("criteo", base_cardinality=300, seed=SEED)
    schema.num_days = 5
    dataset = SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=2500, seed=SEED))

    embedding, model = build(dataset)
    trainer = Trainer(model)

    # Phase 1: train on the first two days, then checkpoint.
    for day in [0, 1]:
        for batch in dataset.day_batches(day, BATCH_SIZE):
            trainer.train_step(batch)
    test = dataset.test_batch(1500)
    auc_before = trainer.evaluate_auc(test)
    print(f"after 2 days:  test AUC = {auc_before:.4f}, "
          f"hot features tracked = {embedding.num_hot_features()}")

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "cafe_checkpoint.npz"
        save_checkpoint(checkpoint, model, embedding)
        print(f"checkpoint written to {checkpoint.name} "
              f"({checkpoint.stat().st_size / 1024:.1f} KiB)")

        # Simulate a crash: rebuild everything from scratch with a different seed,
        # then restore the checkpoint.
        restored_embedding, restored_model = build(dataset, seed=SEED + 100)
        load_checkpoint(checkpoint, restored_model, restored_embedding)

    restored_auc = Trainer(restored_model).evaluate_auc(test)
    print(f"restored model: test AUC = {restored_auc:.4f} "
          f"(matches: {np.isclose(restored_auc, auc_before)})")
    print(f"restored hot features = {restored_embedding.num_hot_features()}, "
          f"threshold = {restored_embedding.hot_threshold:.3f}")

    # Phase 2: resume online training on the remaining days with the restored state.
    resumed_trainer = Trainer(restored_model)
    for day in [2, 3]:
        for batch in dataset.day_batches(day, BATCH_SIZE):
            resumed_trainer.train_step(batch)
    print(f"after resuming 2 more days: test AUC = {resumed_trainer.evaluate_auc(test):.4f}")


if __name__ == "__main__":
    main()
