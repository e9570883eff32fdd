"""Bit-exactness of the embedding update path, pinned by golden digests.

The table-backed backends apply a step through one path (one segment-sum +
one scatter per table).  Its bits were recorded as SHA-256 digests at the
commit before the second, per-region implementation was deleted (636f398,
where both implementations produced these digests): per embedding scheme,
through the 2-shard store and through grouped tables.  The large-batch
digests (2048 × 26 ids, every run-length class of the segment sum) were
recorded at fc8fe3a, where the segment sum was still ``np.add.reduceat``.
"""

import hashlib

import numpy as np
import pytest

from repro.data.schema import DatasetSchema, FieldSchema
from repro.embeddings import create_embedding, create_embedding_store
from repro.store import ShardedEmbeddingStore, TableGroupStore

NUM_FEATURES = 5000
DIM = 8
STEPS = 40
BATCH = 96


def make_batches(seed, steps=STEPS, batch=BATCH, num_features=NUM_FEATURES):
    """Deterministic (ids, grads) stream with a zipf-ish head so the CAFE
    hot path, admissions and evictions all fire."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(steps):
        head = rng.integers(0, 50, size=batch // 2)
        tail = rng.integers(0, num_features, size=batch - head.shape[0])
        ids = np.concatenate([head, tail])
        rng.shuffle(ids)
        grads = rng.standard_normal((batch, DIM)).astype(np.float32)
        batches.append((ids, grads))
    return batches


def train(emb, batches):
    for ids, grads in batches:
        emb.lookup(ids)
        emb.apply_gradients(ids, grads)


def assert_states_equal(a, b):
    assert sorted(a) == sorted(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def row_optimizers(target):
    """Every row optimizer under ``target``, in shard / group order."""
    if isinstance(target, ShardedEmbeddingStore):
        return [optimizer for shard in target.shards for optimizer in row_optimizers(shard)]
    if isinstance(target, TableGroupStore):
        return [
            optimizer for group in target._groups for optimizer in row_optimizers(group.backend)
        ]
    return [target._optimizer]


def run_digest(target, probe):
    """SHA-256 over every ``state_dict()`` array, every row optimizer's own
    ``state_dict()`` arrays and the probe lookup (names, dtypes and shapes
    included).  ``optimizer.*`` entries of the store's state are left out and
    the optimizers read directly, because CAFE's ``state_dict`` did not carry
    them at the recording commit."""
    state = target.state_dict()
    arrays = [(key, state[key]) for key in sorted(state) if "optimizer." not in key]
    for index, optimizer in enumerate(row_optimizers(target)):
        arrays += [
            (f"row_optimizer{index}.{key}", value)
            for key, value in sorted(optimizer.state_dict().items())
        ]
    arrays.append(("probe", target.lookup(probe)))
    digest = hashlib.sha256()
    for key, array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{key}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


GOLDEN_NUMPY = "2.4.6"
GOLDEN_RUNS = {
    "cafe-sgd": "204636d9e65ec3c17bce11f96c788c0df907635ecf377af5d75e543f487a86ce",
    "cafe-adagrad": "c0644bc240e55155aecc24854f477763dedd3f50cdcf8e7574b34f5d937b80f1",
    "cafe_ml-sgd": "8c9f21744f8b84c346cf57ad848e79fe5b70f7da69fcd4a435b9fd108e091c41",
    "cafe_ml-adagrad": "d24fa4616e1e06d47a9d446924805638d3676a9bcb8c09ad256cd705cca54766",
    "hash-sgd": "ee6cdb91b62f636e5587a97d744ecce6f19f6f3a6e2c92a410b6a97a3dd5d6d6",
    "hash-adagrad": "0732e027493a9ddfaf4a35e006c52d82bafbadd0ecdc4f447bc897e2b7108c02",
    "full-sgd": "9d09401083ca9ef6cbb2559215b05a90428e7bd58f5ab6fcf6461a0ee85db77c",
    "full-adagrad": "875fedd5725a53e277d9938083983ffbaa53d1d45aace74b9d0899dd8847f6d9",
    "sharded-cafe": "c5a9dc4b41d75d5a3ac762b05945a186e5ffdc4f48d490661e13b440c395ac59",
    "sharded-hash": "9b6c7fb704e02b4004b3155c36a32b2ee7e49d7e185c184b72843c2547f39d02",
    "grouped": "99ef93bf31345e38156ea0100402b27c495ca040add2db355a508a624ea147db",
}

golden = pytest.mark.skipif(
    np.__version__.split(".")[0] != GOLDEN_NUMPY.split(".")[0],
    reason=f"golden run digests were recorded on numpy {GOLDEN_NUMPY}; this is numpy "
    f"{np.__version__}, whose Generator stream or summation order may differ",
)

PROBE = np.arange(0, NUM_FEATURES, 37)


# --------------------------------------------------------------------------- #
# Per-scheme parity
# --------------------------------------------------------------------------- #
@golden
@pytest.mark.parametrize("method", ["cafe", "cafe_ml", "hash", "full"])
@pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
def test_embedding_matches_golden_digest(method, optimizer):
    emb = create_embedding(
        method,
        num_features=NUM_FEATURES,
        dim=DIM,
        compression_ratio=1.0 if method == "full" else 10.0,
        optimizer=optimizer,
        learning_rate=0.05,
        rng=7,
    )
    train(emb, make_batches(seed=11))
    assert run_digest(emb, PROBE) == GOLDEN_RUNS[f"{method}-{optimizer}"]


# --------------------------------------------------------------------------- #
# Through the sharded store
# --------------------------------------------------------------------------- #
@golden
@pytest.mark.parametrize("method", ["cafe", "hash"])
def test_sharded_store_matches_golden_digest(method):
    store = ShardedEmbeddingStore.build(
        method,
        num_features=NUM_FEATURES,
        dim=DIM,
        num_shards=2,
        compression_ratio=10.0,
        seed=3,
        optimizer="adagrad",
        learning_rate=0.05,
    )
    train(store, make_batches(seed=23))
    assert run_digest(store, PROBE) == GOLDEN_RUNS[f"sharded-{method}"]


# --------------------------------------------------------------------------- #
# Restore-and-continue: the row optimizer rides in CAFE's state_dict
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("num_shards", [1, 4])
@pytest.mark.parametrize("optimizer", ["adagrad", "sketched_adagrad[frac=0.25]"])
@pytest.mark.parametrize("method", ["cafe", "cafe_ml"])
def test_restore_and_continue_is_bit_identical(method, optimizer, num_shards):
    batches = make_batches(seed=61, steps=30)

    def build(seed):
        return ShardedEmbeddingStore.build(
            method,
            num_features=NUM_FEATURES,
            dim=DIM,
            num_shards=num_shards,
            compression_ratio=10.0,
            seed=seed,
            optimizer=optimizer,
            learning_rate=0.05,
        )

    uninterrupted = build(3)
    train(uninterrupted, batches)
    interrupted = build(3)
    train(interrupted, batches[:20])
    # A different initialisation: everything must come out of the state.
    resumed = build(99)
    resumed.load_state_dict(interrupted.state_dict())
    train(resumed, batches[20:])
    assert_states_equal(resumed.state_dict(), uninterrupted.state_dict())
    np.testing.assert_array_equal(resumed.lookup(PROBE), uninterrupted.lookup(PROBE))


# --------------------------------------------------------------------------- #
# Through grouped tables (heterogeneous per-field backends)
# --------------------------------------------------------------------------- #
def hetero_schema():
    return DatasetSchema(
        name="parity",
        fields=[
            FieldSchema("tiny", 30),
            FieldSchema("mid", 900),
            FieldSchema("tail_a", 4000),
            FieldSchema("tail_b", 7000),
        ],
        num_numerical=1,
        embedding_dim=DIM,
        num_days=1,
        zipf_exponent=1.2,
    )


def grouped_batches(schema, seed, steps=25, batch=64):
    rng = np.random.default_rng(seed)
    cards = [field.cardinality for field in schema.fields]
    offsets = np.concatenate([[0], np.cumsum(cards)[:-1]])
    batches = []
    for _ in range(steps):
        ids = np.stack(
            [
                offset + rng.integers(0, card, size=batch)
                for offset, card in zip(offsets, cards)
            ],
            axis=1,
        )
        grads = rng.standard_normal((batch, len(cards), DIM)).astype(np.float32)
        batches.append((ids, grads))
    return batches


@golden
def test_grouped_store_matches_golden_digest():
    schema = hetero_schema()
    batches = grouped_batches(schema, seed=41)
    store = create_embedding_store(
        schema,
        "full:tiny,cafe[cr=16]:tail,hash[cr=8]:mid",
        optimizer="adagrad",
        learning_rate=0.05,
        seed=5,
    )
    assert isinstance(store, TableGroupStore)
    train(store, batches)
    assert run_digest(store, batches[0][0]) == GOLDEN_RUNS["grouped"]


# --------------------------------------------------------------------------- #
# Large batches: every run-length class of the segment sum
# --------------------------------------------------------------------------- #
LARGE_FEATURES = 200_000
LARGE_DIM = 16
LARGE_GOLDEN = {
    "large-cafe-1shard": "4ba472d5c8906f0bf6e7568a9175bcc9e27a00644874a01dfe4ee20015ecf9e1",
    "large-cafe-4shard": "0652c6371d46c3356515fdbe0d01292d0585b9d520ccf054f644d8c78f0a2289",
}


def large_batches(seed, steps=4, batch=2048, fields=26):
    """``(batch, fields)`` id matrices as a DLRM step at batch 2048 sees them:
    per-field vocabularies of 30 to 20 000 ids, each with a Zipf head.  A
    batch has ≈ 4.8k ids seen once, 2.5k seen 2-8 times, 700 seen 9-129
    times and 60 seen more often, so the gradient sum folds every class."""
    sizes = np.geomspace(30, 20_000, fields).astype(np.int64)
    offsets = np.cumsum(sizes) - sizes
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(steps):
        ids = offsets + (rng.zipf(1.3, size=(batch, fields)) - 1) % sizes
        grads = rng.standard_normal((batch, fields, LARGE_DIM)).astype(np.float32)
        batches.append((ids, grads))
    return batches


@golden
@pytest.mark.parametrize(
    "num_shards, optimizer", [(1, "sgd"), (4, "adagrad")], ids=["1shard", "4shard"]
)
def test_large_batch_cafe_matches_golden_digest(num_shards, optimizer):
    store = ShardedEmbeddingStore.build(
        "cafe",
        num_features=LARGE_FEATURES,
        dim=LARGE_DIM,
        num_shards=num_shards,
        compression_ratio=10.0,
        seed=13,
        optimizer=optimizer,
        learning_rate=0.05,
        dtype="float32",
    )
    assert (store._stack is not None) == (num_shards > 1)
    train(store, large_batches(seed=29))
    probe = np.arange(0, LARGE_FEATURES, 97)
    assert run_digest(store, probe) == LARGE_GOLDEN[f"large-cafe-{num_shards}shard"]
