"""Tests for the DLRM, WDL and DCN model architectures."""

import numpy as np
import pytest

from repro.embeddings.full import FullEmbedding
from repro.embeddings.hash_embedding import HashEmbedding
from repro.models import MODEL_NAMES, create_model
from repro.models.dcn import DCN
from repro.models.dlrm import DLRM
from repro.models.wdl import WDL
from repro.nn import functional as F
from repro.nn.tensor import Tensor

N = 500
DIM = 8
FIELDS = 5
NUMERICAL = 3


def make_batch(batch_size=16, num_numerical=NUMERICAL, seed=0):
    rng = np.random.default_rng(seed)
    categorical = rng.integers(0, N, size=(batch_size, FIELDS))
    numerical = rng.normal(size=(batch_size, num_numerical))
    labels = rng.integers(0, 2, size=batch_size).astype(float)
    return categorical, numerical, labels


def forward(model, categorical, numerical):
    """``(logits, embedding leaf)``: the batch checks, the lookup, then the
    model's graph node (``forward_dense``)."""
    categorical, numerical = model._check_batch(categorical, numerical)
    leaf = Tensor(model.store.lookup(categorical), requires_grad=True)
    return model.forward_dense(leaf, numerical), leaf


def make_model(name, num_numerical=NUMERICAL, seed=0):
    embedding = FullEmbedding(N, DIM, rng=seed)
    return create_model(name, embedding, num_fields=FIELDS, num_numerical=num_numerical, rng=seed)


class TestFactory:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_create_each_model(self, name):
        model = make_model(name)
        assert model.num_fields == FIELDS

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            make_model("transformer")

    def test_expected_classes(self):
        assert isinstance(make_model("dlrm"), DLRM)
        assert isinstance(make_model("wdl"), WDL)
        assert isinstance(make_model("dcn"), DCN)


class TestForward:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_logit_shape(self, name):
        model = make_model(name)
        categorical, numerical, _ = make_batch()
        logits, leaf = forward(model, categorical, numerical)
        assert logits.shape == (16,)
        assert leaf.shape == (16, FIELDS, DIM)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_without_numerical_features(self, name):
        model = make_model(name, num_numerical=0)
        categorical, _, _ = make_batch(num_numerical=0)
        logits, _ = forward(model, categorical, None)
        assert logits.shape == (16,)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_predict_proba_range(self, name):
        model = make_model(name)
        categorical, numerical, _ = make_batch()
        probs = model.predict_proba(categorical, numerical)
        assert probs.shape == (16,)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_categorical_shape_validated(self):
        model = make_model("dlrm")
        with pytest.raises(ValueError):
            forward(model, np.zeros((4, FIELDS + 1), dtype=np.int64), np.zeros((4, NUMERICAL)))

    def test_numerical_shape_validated(self):
        model = make_model("dlrm")
        categorical, _, _ = make_batch()
        with pytest.raises(ValueError):
            forward(model, categorical, np.zeros((16, NUMERICAL + 1)))
        with pytest.raises(ValueError):
            forward(model, categorical, None)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_deterministic_forward(self, name):
        model = make_model(name)
        categorical, numerical, _ = make_batch()
        a, _ = forward(model, categorical, numerical)
        b, _ = forward(model, categorical, numerical)
        assert np.allclose(a.data, b.data)


class TestBackward:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_embedding_leaf_receives_gradient(self, name):
        model = make_model(name)
        categorical, numerical, labels = make_batch()
        logits, leaf = forward(model, categorical, numerical)
        loss = F.binary_cross_entropy_with_logits(logits, labels)
        loss.backward()
        assert leaf.grad is not None
        assert leaf.grad.shape == (16, FIELDS, DIM)
        assert np.any(leaf.grad != 0)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_dense_parameters_receive_gradients(self, name):
        model = make_model(name)
        categorical, numerical, labels = make_batch()
        logits, _ = forward(model, categorical, numerical)
        loss = F.binary_cross_entropy_with_logits(logits, labels)
        model.zero_grad()
        loss.backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.any(g != 0) for g in grads)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_dense_parameter_count_positive(self, name):
        model = make_model(name)
        assert model.dense_parameter_count() > 0


class TestWithCompressedEmbeddings:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_models_accept_any_embedding_scheme(self, name):
        embedding = HashEmbedding(N, DIM, num_rows=16, rng=0)
        model = create_model(name, embedding, num_fields=FIELDS, num_numerical=NUMERICAL, rng=0)
        categorical, numerical, _ = make_batch()
        logits, _ = forward(model, categorical, numerical)
        assert np.all(np.isfinite(logits.data))

    def test_invalid_field_count(self):
        embedding = FullEmbedding(N, DIM, rng=0)
        with pytest.raises(ValueError):
            DLRM(embedding, num_fields=0, num_numerical=1)
        with pytest.raises(ValueError):
            DLRM(embedding, num_fields=3, num_numerical=-1)
