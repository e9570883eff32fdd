#!/usr/bin/env python
"""CI smoke: old checkpoints load into the current code, new ones resume exactly.

Nine legs.  The dense-optimizer leg: a checkpoint written before there was
an ``optim/`` section loads into a current session (fresh optimizer state,
said so in ``describe()``) and trains; a current checkpoint taken after 20
Adam steps resumes bit-exactly.  The row-optimizer leg is the same pair for
a 4-shard CAFE store with row-Adagrad, whose shards carried no
``optimizer.*`` entries before they named their optimizer ``_optimizer``;
then a checkpoint carrying the retired ``sketched_adagrad``'s
``optimizer.sketch_counters`` / ``heavy_keys`` / ``heavy_vals`` is refused
by that store with ``OptimizerStateMismatchError``, and refused whole.
The wrong-length leg checks the same refusal, whole, of a 4-shard
row-Adagrad checkpoint whose last shard's ``optimizer.accumulator`` is three
entries longer than the shard's rows.  The extra-row leg checks that a
4-shard CAFE checkpoint whose last shard's ``hot_table`` has one more row
is refused with ``CheckpointLayoutError``, whole: every array of every
section is checked before the first is written.
The store-step leg checks that the store's ``step()`` comes back from a
checkpoint's ``sparse/step`` header, at 1 and 4 shards, and that a
checkpoint without that header (as an earlier commit wrote it) still loads.
The backend leg resumes a checkpoint of every backend that has sparse state
(``full``, ``hash``, ``cafe``, ``cafe_ml``) bit-exactly.  The sharded-hash
leg checks that a 2-shard ``hash`` checkpoint (written before a store of
several shards had to be one CAFE stack) is refused by a 2-shard CAFE
store with ``CheckpointLayoutError``, and refused whole.
The table-group leg checks that a checkpoint of the retired table-group
store is refused, and refused whole:

1. train a DLRM over a CAFE layer and save a checkpoint (a 1-shard store:
   a ``num_shards`` header and ``shard0.*`` keys);
2. write the same state as a two-group table-group store saved it (a
   ``num_groups`` header and the layer's keys under ``group{i}.backend.``)
   and verify that loading it into a 1-shard model raises
   ``CheckpointLayoutError`` naming table groups, with the dense weights,
   the dense optimizer and the store unchanged;
3. verify the step-1 checkpoint still loads into that model and predicts
   bit-exactly.

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
from repro.errors import CheckpointLayoutError, OptimizerStateMismatchError
from repro.models.dlrm import DLRM
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


def assert_refused_whole(load, error, match: str, model, optimizer) -> None:
    """``load()`` raises ``error`` naming ``match`` and leaves the dense
    weights, the dense optimizer and the store as they were."""
    dense_before = {k: v.copy() for k, v in model.state_dict().items()}
    optim_before = {k: np.array(v, copy=True) for k, v in optimizer.state_dict().items()}
    store_before = model.store.state_dict()
    try:
        load()
    except error as exc:
        assert match in str(exc), exc
    else:
        raise AssertionError(f"a checkpoint that should raise {error.__name__} loaded")
    for before, after in (
        (dense_before, model.state_dict()),
        (optim_before, optimizer.state_dict()),
        (store_before, model.store.state_dict()),
    ):
        assert sorted(before) == sorted(after)
        for key in before:
            assert np.array_equal(before[key], after[key]), f"refused load wrote {key}"


def refused_leg(
    config: SystemConfig, tmp: Path, unfit, match: str, error=OptimizerStateMismatchError
) -> None:
    """A row-Adagrad store refuses with ``error``, whole, a checkpoint whose
    payload ``unfit(payload, num_shards)`` edited."""
    with build(config) as source, build(config) as target:
        stream = iter(source.dataset.training_stream(source.batch_size))
        for _ in range(5):
            batch = next(stream)
            source.trainer.train_step(batch)
            target.trainer.train_step(batch)  # non-zero moments and accumulators
        path = source.checkpoint(tmp / "unfit.npz")
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        unfit(payload, config.store.num_shards)
        np.savez(path, **payload)
        assert_refused_whole(
            lambda: target.restore(path),
            error,
            match,
            target.model,
            target.trainer.dense_optimizer,
        )


def sketched_state(payload: dict, num_shards: int) -> None:
    """The retired ``sketched_adagrad``'s entries in place of the accumulators."""
    for key in [key for key in payload if ".optimizer." in key]:
        del payload[key]
    for shard in range(num_shards):
        prefix = f"sparse/shard{shard}.optimizer."
        payload[prefix + "sketch_counters"] = np.zeros((3, 64), dtype=np.float32)
        payload[prefix + "heavy_keys"] = np.full(16, -1, dtype=np.int64)
        payload[prefix + "heavy_vals"] = np.zeros(16, dtype=np.float32)


def long_accumulator(payload: dict, num_shards: int) -> None:
    """The last shard's accumulator three entries too long (the shards before
    it would be written first by a restore that checked late)."""
    key = f"sparse/shard{num_shards - 1}.optimizer.accumulator"
    payload[key] = np.ones(payload[key].shape[0] + 3, dtype=payload[key].dtype)


def extra_hot_row(payload: dict, num_shards: int) -> None:
    """The last shard's hot table one row longer (the shards before it would
    be written first by a restore that checked each shard as it wrote it)."""
    key = f"sparse/shard{num_shards - 1}.hot_table"
    payload[key] = np.concatenate([payload[key], payload[key][:1]])


def store_step_leg(config: SystemConfig, tmp: Path) -> None:
    """The store's step survives a restore; a step-less checkpoint loads."""
    with build(config) as session, build(config) as resumed, build(config) as migrated:
        stream = iter(session.dataset.training_stream(session.batch_size))
        for _ in range(12):
            session.trainer.train_step(next(stream))
        path = session.checkpoint(tmp / "step.npz")
        resumed.restore(path)
        assert resumed.store.step() == session.store.step() == 12, resumed.store.step()
        with np.load(path) as data:
            assert "sparse/step" in data.files, "the checkpoint has no store step header"
            payload = {key: data[key] for key in data.files if key != "sparse/step"}
        stepless = tmp / "stepless.npz"
        np.savez(stepless, **payload)
        migrated.restore(stepless)
        assert migrated.store.step() == 0, migrated.store.step()
        test = session.dataset.test_batch(128)
        assert np.array_equal(
            session.model.predict_proba(test.categorical, test.numerical),
            migrated.model.predict_proba(test.categorical, test.numerical),
        ), "a step-less checkpoint did not restore the model"


def backend_leg(config: SystemConfig, tmp: Path) -> None:
    """Every backend with sparse state resumes from its checkpoint bit-exactly."""
    for spec in ("full", "hash", "cafe", "cafe_ml"):
        backend = apply_overrides(config, [f"store.spec={spec}"])
        with build(backend) as session, build(backend) as resumed:
            stream = iter(session.dataset.training_stream(session.batch_size))
            batches = [next(stream) for _ in range(15)]
            for batch in batches[:10]:
                session.trainer.train_step(batch)
            path = session.checkpoint(tmp / f"{spec}.npz")
            with np.load(path) as data:
                assert any(key.startswith("sparse/shard0.") for key in data.files), spec
            assert resumed.restore(path) == 10
            assert resumed.store.step() == session.store.step() == 10, spec
            expected = [session.trainer.train_step(batch) for batch in batches[10:]]
            got = [resumed.trainer.train_step(batch) for batch in batches[10:]]
            assert got == expected, f"{spec}: resume after 10 steps is not bit-exact"


def sharded_hash_leg(config: SystemConfig, tmp: Path) -> None:
    """A 2-shard hash checkpoint is refused whole by a 2-shard CAFE store."""
    hash_config = apply_overrides(config, ["store.spec=hash"])
    cafe_config = apply_overrides(config, ["store.num_shards=2", "store.optimizer=adagrad"])
    with build(hash_config) as source, build(cafe_config) as target:
        stream = iter(source.dataset.training_stream(source.batch_size))
        for _ in range(5):
            batch = next(stream)
            source.trainer.train_step(batch)
            target.trainer.train_step(batch)  # non-zero moments and accumulators
        path = source.checkpoint(tmp / "sharded_hash.npz")
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        payload["sparse/num_shards"] = np.asarray(2)
        for key in [key for key in payload if key.startswith("sparse/shard0.")]:
            payload[key.replace("shard0.", "shard1.", 1)] = payload[key]
        np.savez(path, **payload)
        assert_refused_whole(
            lambda: target.restore(path),
            CheckpointLayoutError,
            "not a CAFE shard's",
            target.model,
            target.trainer.dense_optimizer,
        )


def dense_optimizer_is_cold(session) -> None:
    described = session.describe()["model"]["dense_optimizer"]
    assert described == {"kind": "adam", "step_count": 0, "restored": False}, described


def main() -> int:
    quickstart = SystemConfig.load(QUICKSTART)
    cafe_adagrad = apply_overrides(quickstart, ["store.num_shards=4", "store.optimizer=adagrad"])
    with tempfile.TemporaryDirectory() as tmp:
        resume_leg(quickstart, Path(tmp), lambda key: key.startswith("optim/"), dense_optimizer_is_cold)
        resume_leg(cafe_adagrad, Path(tmp), lambda key: ".optimizer." in key)
        refused_leg(cafe_adagrad, Path(tmp), sketched_state, "sketched_adagrad")
        refused_leg(
            cafe_adagrad, Path(tmp), long_accumulator, "row-optimizer state ['accumulator'] (shapes"
        )
        refused_leg(
            cafe_adagrad, Path(tmp), extra_hot_row, "not a CAFE shard's", CheckpointLayoutError
        )
        store_step_leg(quickstart, Path(tmp))
        store_step_leg(cafe_adagrad, Path(tmp))
        backend_leg(quickstart, Path(tmp))
        sharded_hash_leg(quickstart, Path(tmp))

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

    # 1. A current checkpoint.
    model = DLRM(make_cafe(n, seed=0), schema.num_fields, schema.num_numerical, rng=1)
    trainer = Trainer(model)
    for batch in dataset.day_batches(0, 64):
        trainer.train_step(batch)
    test = dataset.test_batch(256)
    expected = model.predict_proba(test.categorical, test.numerical)

    with tempfile.TemporaryDirectory() as tmp:
        current_path = Path(tmp) / "current.npz"
        save_checkpoint(current_path, model, step=trainer.global_step)

        # 2. The same state as a two-group table-group store wrote it.
        group_path = Path(tmp) / "grouped.npz"
        with np.load(current_path) as data:
            payload = {k: data[k] for k in data.files if not k.startswith("sparse/")}
            prefix = "sparse/shard0."
            backend = {k[len(prefix):]: data[k] for k in data.files if k.startswith(prefix)}
        payload["sparse/num_groups"] = np.asarray(2)
        payload["sparse/step"] = np.asarray(trainer.global_step)
        for group in range(2):
            payload[f"sparse/group{group}.fields"] = np.arange(group, schema.num_fields, 2)
            for key, value in backend.items():
                payload[f"sparse/group{group}.backend.{key}"] = value
        np.savez(group_path, **payload)

        target = DLRM(make_cafe(n, seed=9), schema.num_fields, schema.num_numerical, rng=2)
        target_trainer = Trainer(target)
        target_trainer.train_step(next(dataset.day_batches(1, 64)))  # non-zero moments
        optimizer = target_trainer.dense_optimizer
        assert_refused_whole(
            lambda: load_checkpoint(group_path, target, optimizer=optimizer),
            CheckpointLayoutError,
            "table-group",
            target,
            optimizer,
        )

        # 3. The current checkpoint still loads.
        step = load_checkpoint(current_path, target, optimizer=optimizer)
        assert step == trainer.global_step, (step, trainer.global_step)
        got = target.predict_proba(test.categorical, test.numerical)
        assert np.array_equal(expected, got), "checkpoint restore is not bit-exact"

    print(
        "checkpoint migration smoke: optim-less -> current OK, Adam resume bit-exact, "
        "CAFE row-Adagrad resume bit-exact (optimizer-less loads), store step restored "
        "(step-less loads), full/hash/cafe/cafe_ml resume bit-exact, sketched_adagrad state, "
        "a wrong-length accumulator, a 4-shard hot table with an extra row, 2-shard hash "
        "checkpoint and table-group checkpoint refused with nothing restored"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
