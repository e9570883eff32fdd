"""The custom-model example trains through ``Trainer``'s array step, and that
step is the per-op graph of the same network, bit for bit.

``examples/custom_model_integration.py`` defines a two-tower model of its
own (a ``RecommendationModel`` with ``dense_forward`` / ``dense_backward``
written from ``MLP.forward_array`` / ``backward_array``).  Here it runs
``Trainer`` steps beside its composition from ``tests/reference_graph.py``
over a twin with the same parameters and store: every step's loss, the
embedding gradient (``leaf.grad``) and every parameter gradient must be the
same bytes, in float32 and float64, and so must the parameters and the
store at the end.
"""

from __future__ import annotations

import importlib.util
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import reference_graph as G
from repro.data import SyntheticConfig, SyntheticCTRDataset, make_preset
from repro.embeddings import create_embedding
from repro.nn import functional as F
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.training import Trainer

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "custom_model_integration.py"
STEPS = 12


def load_example():
    spec = importlib.util.spec_from_file_location("custom_model_integration", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


example = load_example()


def dataset() -> SyntheticCTRDataset:
    schema = make_preset("avazu", base_cardinality=60, seed=example.SEED)
    schema.num_days = 3
    return SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=400, seed=3))


def make_model(data, backend: str, dtype: str):
    schema = data.schema
    if backend == "own":  # the example's own class
        embedding = example.make_embedding("own", schema, 1.0)
    else:
        embedding = create_embedding(
            backend, num_features=schema.num_features, dim=schema.embedding_dim,
            compression_ratio=1.0 if backend == "full" else 10.0, optimizer="adagrad",
            learning_rate=0.1, dtype=dtype, rng=np.random.default_rng(0),
        )
    return example.TwoTowerModel(embedding, schema.num_fields, rng=example.SEED + 1)


def graph_logits(model, leaf: Tensor) -> Tensor:
    """The two towers as per-op graph nodes over ``model``'s parameters."""
    split, fields = model.split, model.num_fields
    user = G.mlp(model.user_tower, G.mean(G.fields(leaf, 0, split), axis=1))
    item = G.mlp(model.item_tower, G.mean(G.fields(leaf, split, fields), axis=1))
    return G.sum(G.mul(user, item), axis=1)


def same_bytes(left: np.ndarray, right: np.ndarray) -> bool:
    return left.dtype == right.dtype and left.shape == right.shape and left.tobytes() == right.tobytes()


BACKENDS = [
    (backend, dtype) for backend in ("full", "hash", "cafe") for dtype in ("float32", "float64")
] + [("own", "float32")]


@pytest.mark.parametrize("backend, dtype", BACKENDS)
def test_trainer_steps_are_the_graph_composition(backend, dtype):
    data = dataset()
    array_model, graph_model = make_model(data, backend, dtype), make_model(data, backend, dtype)
    assert array_model.dtype == np.dtype(dtype)
    trainer = Trainer(array_model)
    optimizer = Adam(list(graph_model.parameters()), lr=0.01)
    # A short last batch: the workspace moves to another size and back.
    batches = list(islice(data.training_stream(64), STEPS)) + [next(data.training_stream(37))]
    for batch in batches + batches[:2]:
        loss, dx = trainer._step(batch)

        leaf = Tensor(graph_model.store.lookup(batch.categorical), requires_grad=True)
        graph_loss = F.binary_cross_entropy_with_logits(graph_logits(graph_model, leaf), batch.labels)
        graph_model.zero_grad()
        graph_loss.backward()

        assert np.float64(loss).tobytes() == np.float64(graph_loss.data).tobytes()
        assert same_bytes(dx, leaf.grad)
        for staged, param in zip(trainer.dense_optimizer.staging, graph_model.parameters()):
            assert same_bytes(staged, param.grad)
        graph_model.store.apply_gradients(batch.categorical, leaf.grad)
        optimizer.step()
    assert trainer.global_step == len(batches) + 2
    for got, want in zip(array_model.parameters(), graph_model.parameters()):
        assert same_bytes(got.data, want.data)
    probe = batches[0].categorical
    assert same_bytes(array_model.store.lookup(probe), graph_model.store.lookup(probe))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_the_graph_node_is_the_graph_composition(dtype):
    """``forward_dense``, the one node a traced step times, over the custom model."""
    data = dataset()
    model = make_model(data, "full", dtype)
    batch = next(data.training_stream(64))
    vectors = model.store.lookup(batch.categorical)
    results = []
    for logits_of in (lambda leaf: model.forward_dense(leaf, np.zeros((64, 0))),
                      lambda leaf: graph_logits(model, leaf)):
        leaf = Tensor(vectors.copy(), requires_grad=True)
        logits = logits_of(leaf)
        model.zero_grad()
        F.binary_cross_entropy_with_logits(logits, batch.labels).backward()
        results.append([logits.data, leaf.grad] + [p.grad for p in model.parameters()])
    for node, graph in zip(*results):
        assert same_bytes(node, graph)


def test_the_example_trains_every_backend_through_the_trainer(monkeypatch, capsys):
    steps = []
    original = Trainer.train_step

    def counting(self, batch):
        steps.append(type(self.model).__name__)
        return original(self, batch)

    monkeypatch.setattr(Trainer, "train_step", counting)
    example.main()
    out = capsys.readouterr().out
    for backend in ("full", "hash", "cafe", "own"):
        assert f"backend={backend}" in out
    assert steps and set(steps) == {"TwoTowerModel"}
