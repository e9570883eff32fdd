"""The backend table and the capability matrix of the eight backends.

A backend is its class: what it can do beyond lookup / apply is what it
implements of the ``CompressedEmbedding`` contract.  The matrix below is
pinned through that contract on each backend bare, through a store (two
shards for ``cafe``, the one backend that shards; one for the others) and
through a checkpoint's ``has_sparse`` flag.
"""

import numpy as np
import pytest

from repro.data.schema import DatasetSchema, FieldSchema
from repro.embeddings import (
    METHOD_NAMES,
    QRTrickEmbedding,
    create_embedding,
    get_backend,
)
from repro.errors import ConfigurationError, UnknownBackendError
from repro.models.dlrm import DLRM
from repro.store import ShardedEmbeddingStore
from repro.training.checkpoint import load_checkpoint, save_checkpoint

CHECKPOINTABLE = {"full", "hash", "cafe", "cafe_ml"}
SKETCH_CARRYING = {"cafe", "cafe_ml"}

SCHEMA = DatasetSchema(
    name="matrix",
    fields=[FieldSchema("a", 300), FieldSchema("b", 200), FieldSchema("c", 100)],
    num_numerical=2,
    embedding_dim=8,
)
SIDE_INPUTS = {
    "field_cardinalities": SCHEMA.field_cardinalities,
    "frequencies": np.arange(SCHEMA.num_features, 0, -1).astype(np.float64),
}


def build(method, num_shards=None, seed=0):
    """A bare backend, or a ``num_shards``-way store of it, at 2x compression."""
    kwargs = dict(
        num_features=SCHEMA.num_features,
        dim=SCHEMA.embedding_dim,
        compression_ratio=2.0,
        **{key: SIDE_INPUTS[key] for key in get_backend(method).requires},
    )
    if num_shards is None:
        return create_embedding(method, rng=seed, **kwargs)
    return ShardedEmbeddingStore.build(method, num_shards=num_shards, seed=seed, **kwargs)


def train(layer, steps=3):
    rng = np.random.default_rng(1)
    for _ in range(steps):
        ids = rng.integers(0, SCHEMA.num_features, size=(32, SCHEMA.num_fields))
        layer.lookup(ids)
        layer.apply_gradients(ids, rng.normal(scale=0.1, size=ids.shape + (SCHEMA.embedding_dim,)))


def checkpointable(layer) -> bool:
    try:
        layer.state_dict()
    except NotImplementedError:
        return False
    return True


def sketch_carrying(layer) -> bool:
    try:
        layer.merged_sketch()
    except NotImplementedError:
        return False
    return True


class TestBackendTable:
    def test_every_method_name_is_a_backend(self):
        assert all(get_backend(name).name == name for name in METHOD_NAMES)

    def test_side_inputs(self):
        assert get_backend("offline").requires == ("frequencies",)
        assert get_backend("mde").requires == ("field_cardinalities",)
        assert get_backend("CAFE").requires == ()

    def test_unknown_backend_is_value_error_and_configuration_error(self):
        with pytest.raises(UnknownBackendError, match="known backends: .*'cafe'"):
            get_backend("bogus")
        assert issubclass(UnknownBackendError, ValueError)
        assert issubclass(UnknownBackendError, ConfigurationError)
        with pytest.raises(UnknownBackendError):
            create_embedding("bogus", num_features=10, dim=4)


@pytest.mark.parametrize("method", METHOD_NAMES)
class TestCapabilityMatrix:
    def test_bare(self, method):
        layer = build(method)
        train(layer)
        assert checkpointable(layer) == (method in CHECKPOINTABLE)
        assert sketch_carrying(layer) == (method in SKETCH_CARRYING)
        if method not in CHECKPOINTABLE:
            with pytest.raises(NotImplementedError):
                layer.load_state_dict({})

    def test_store(self, method):
        store = build(method, num_shards=2 if method == "cafe" else 1)
        assert checkpointable(store) == (method in CHECKPOINTABLE)
        assert sketch_carrying(store) == (method in SKETCH_CARRYING)

    def test_checkpoint_has_sparse(self, method, tmp_path):
        def model(seed):
            return DLRM(build(method, seed=seed), SCHEMA.num_fields, SCHEMA.num_numerical, rng=seed)

        trained = model(0)
        train(trained.store)
        path = save_checkpoint(tmp_path / f"{method}.npz", trained)
        with np.load(path) as data:
            assert bool(data["meta/has_sparse"]) == (method in CHECKPOINTABLE)
        restored = model(7)
        load_checkpoint(path, restored)
        if method in CHECKPOINTABLE:
            ids = np.arange(SCHEMA.num_fields * 20).reshape(-1, SCHEMA.num_fields)
            assert np.array_equal(restored.store.lookup(ids), trained.store.lookup(ids))


class CheckpointableQR(QRTrickEmbedding):
    """A class of one's own: Q-R plus a state_dict, built and never registered."""

    def state_dict(self):
        return {"quotient": self.quotient_table.copy(), "remainder": self.remainder_table.copy()}

    def load_state_dict(self, state):
        self.quotient_table[...] = state["quotient"]
        self.remainder_table[...] = state["remainder"]


def test_a_class_of_your_own_is_checkpointable_through_a_store():
    def store(seed):
        dims = SCHEMA.num_features, SCHEMA.embedding_dim
        return ShardedEmbeddingStore([CheckpointableQR(*dims, num_remainder_rows=32, rng=seed)])

    trained, restored = store(0), store(5)
    train(trained)
    restored.load_state_dict(trained.state_dict())
    ids = np.arange(SCHEMA.num_fields * 20).reshape(-1, SCHEMA.num_fields)
    assert np.array_equal(restored.lookup(ids), trained.lookup(ids))
    assert not sketch_carrying(trained)


def test_sparse_section_into_a_stateless_store_is_refused(tmp_path):
    def model(method):
        return DLRM(build(method, num_shards=1), SCHEMA.num_fields, SCHEMA.num_numerical, rng=0)

    path = save_checkpoint(tmp_path / "full.npz", model("full"))
    stateless = model("qr")
    with pytest.raises(ValueError, match="cannot load one"):
        load_checkpoint(path, stateless)
