#!/usr/bin/env python
"""CI smoke: old checkpoints load into the current code, new ones resume exactly.

Three legs.  The dense-optimizer leg: a checkpoint written before there was
an ``optim/`` section loads into a current session (fresh optimizer state,
said so in ``describe()``) and trains; a current checkpoint taken after 20
Adam steps resumes bit-exactly.  The row-optimizer leg is the same pair for
a 4-shard CAFE store with row-Adagrad, whose shards carried no
``optimizer.*`` entries before they named their optimizer ``_optimizer``.
The table-group leg exercises the checkpoint-migration contract end to end:

1. train a DLRM over a *bare* CAFE layer and save a checkpoint — its sparse
   section is the flat, un-namespaced key space every pre-table-group
   checkpoint has;
2. load that checkpoint into a model whose store is a single-group
   ``TableGroupStore`` of the same geometry and verify bit-exact
   predictions (the migration path);
3. re-save through the group store and verify the new checkpoint is
   group-namespaced and round-trips bit-exact;
4. verify a multi-group store refuses the flat checkpoint with a clear
   error instead of corrupting state.

Usage::

    PYTHONPATH=src python scripts/checkpoint_migration_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.api import SystemConfig, apply_overrides, build
from repro.data.schema import DatasetSchema, FieldSchema
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.embeddings.cafe import CafeEmbedding
from repro.models.dlrm import DLRM
from repro.store import TableGroup, TableGroupStore
from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.trainer import Trainer

DIM = 8


def make_cafe(num_features: int, seed: int) -> CafeEmbedding:
    return CafeEmbedding(
        num_features=num_features,
        dim=DIM,
        num_hot_rows=12,
        num_shared_rows=24,
        rebalance_interval=3,
        learning_rate=0.1,
        rng=seed,
    )


QUICKSTART = Path(__file__).resolve().parents[1] / "examples/configs/quickstart.json"


def resume_leg(config: SystemConfig, tmp: Path, dropped, check_cold=None) -> None:
    """Resume a current checkpoint bit-exactly; load one without the
    ``dropped(key)`` entries (as an earlier commit wrote it) and train on."""
    with build(config) as session, build(config) as resumed, build(config) as migrated:
        stream = iter(session.dataset.training_stream(session.batch_size))
        batches = [next(stream) for _ in range(30)]
        for batch in batches[:20]:
            session.trainer.train_step(batch)
        current = session.checkpoint(tmp / "current.npz")
        expected = [session.trainer.train_step(batch) for batch in batches[20:]]

        assert resumed.restore(current) == 20
        got = [resumed.trainer.train_step(batch) for batch in batches[20:]]
        assert got == expected, "resume after 20 steps is not bit-exact"
        for ours, theirs in zip(resumed.model.parameters(), session.model.parameters()):
            assert np.array_equal(ours.data, theirs.data), "resumed parameters differ"
        ours, theirs = resumed.store.state_dict(), session.store.state_dict()
        assert sorted(ours) == sorted(theirs)
        for key in ours:
            assert np.array_equal(ours[key], theirs[key]), f"resumed store differs at {key}"

        with np.load(current) as data:
            payload = {key: data[key] for key in data.files if not dropped(key)}
            assert len(payload) < len(data.files), "current checkpoint has nothing to drop"
        old = tmp / "old.npz"
        np.savez(old, **payload)
        assert migrated.restore(old) == 20
        if check_cold is not None:
            check_cold(migrated)
        losses = [migrated.trainer.train_step(batch) for batch in batches[20:]]
        assert np.isfinite(losses).all(), "training after a cold-optimizer restore diverged"


def dense_optimizer_is_cold(session) -> None:
    described = session.describe()["model"]["dense_optimizer"]
    assert described == {"kind": "adam", "step_count": 0, "restored": False}, described


def main() -> int:
    quickstart = SystemConfig.load(QUICKSTART)
    cafe_adagrad = apply_overrides(quickstart, ["store.num_shards=4", "store.optimizer=adagrad"])
    with tempfile.TemporaryDirectory() as tmp:
        resume_leg(quickstart, Path(tmp), lambda key: key.startswith("optim/"), dense_optimizer_is_cold)
        resume_leg(cafe_adagrad, Path(tmp), lambda key: ".optimizer." in key)

    schema = DatasetSchema(
        name="migration",
        fields=[FieldSchema("a", 50), FieldSchema("mid", 600), FieldSchema("tail", 4000)],
        num_numerical=2,
        embedding_dim=DIM,
        num_days=2,
        zipf_exponent=1.3,
    )
    dataset = SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=512, seed=0))
    n = schema.num_features

    def grouped_model(seed: int) -> DLRM:
        store = TableGroupStore(
            [
                TableGroup(
                    "g0_cafe",
                    make_cafe(n, seed),
                    field_indices=np.arange(schema.num_fields),
                    global_shift=np.zeros(schema.num_fields, dtype=np.int64),
                )
            ],
            num_fields=schema.num_fields,
            num_features=n,
            dim=DIM,
        )
        return DLRM(store, schema.num_fields, schema.num_numerical, rng=1)

    # 1. Flat checkpoint from the pre-table-group architecture.
    flat_model = DLRM(make_cafe(n, seed=0), schema.num_fields, schema.num_numerical, rng=1)
    trainer = Trainer(flat_model)
    for batch in dataset.day_batches(0, 64):
        trainer.train_step(batch)
    test = dataset.test_batch(256)
    expected = flat_model.predict_proba(test.categorical, test.numerical)

    with tempfile.TemporaryDirectory() as tmp:
        flat_path = Path(tmp) / "flat.npz"
        save_checkpoint(flat_path, flat_model, step=trainer.global_step)

        # 2. Migrate into a single-group table-group store.
        migrated = grouped_model(seed=9)
        step = load_checkpoint(flat_path, migrated)
        assert step == trainer.global_step, (step, trainer.global_step)
        got = migrated.predict_proba(test.categorical, test.numerical)
        assert np.array_equal(expected, got), "flat -> group migration is not bit-exact"

        # 3. Re-save group-namespaced and round-trip.
        group_path = Path(tmp) / "grouped.npz"
        save_checkpoint(group_path, migrated, step=step)
        with np.load(group_path) as data:
            keys = [k for k in data.files if k.startswith("sparse/")]
        assert any(k.startswith("sparse/group0.backend.") for k in keys), keys
        assert "sparse/num_groups" in keys, keys
        restored = grouped_model(seed=21)
        load_checkpoint(group_path, restored)
        assert np.array_equal(
            expected, restored.predict_proba(test.categorical, test.numerical)
        ), "group-namespaced round trip is not bit-exact"

        # 4. A multi-group store must refuse the flat format.
        multi = TableGroupStore.from_schema(
            schema, spec="full:tiny,cafe[cr=10]:tail,hash[cr=4]:mid", seed=0
        )
        multi_model = DLRM(multi, schema.num_fields, schema.num_numerical, rng=1)
        try:
            load_checkpoint(flat_path, multi_model)
        except (ValueError, KeyError):
            pass
        else:
            raise AssertionError("multi-group store accepted a flat checkpoint")

    print(
        "checkpoint migration smoke: optim-less -> current OK, Adam resume bit-exact, "
        "CAFE row-Adagrad resume bit-exact (optimizer-less loads), "
        "flat -> group-namespaced OK (bit-exact)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
