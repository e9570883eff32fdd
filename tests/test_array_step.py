"""``Trainer``'s array step against the graph composition it replaced.

``Trainer.train_step`` runs the built-in models' array forward, the array
BCE, ``dense_backward`` and the optimizer's flat update with no graph.  The
graph composition (``run_step``: the lookup → ``model.forward_dense`` →
the BCE node → ``loss.backward()`` → ``optimizer.step()``) stays the oracle:
over every model × store dtype × backend (adaptive and static), on one
shard and on four (stacked for plain CAFE), the two must agree bit for bit
on the loss, the embedding gradient, the dense parameters, the optimizer
state and the store.  Bad labels are
refused before the lookup with nothing touched.
"""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest

from repro.api import build
from repro.data.stream import Batch
from repro.errors import BadBatchError, BatchShapeError, InvalidLabelError

from test_dense_precision import quickstart, run_step

STEPS = 30


def assert_same_bytes(left: dict, right: dict) -> None:
    assert left.keys() == right.keys()
    for key, value in left.items():
        value, other = np.asarray(value), np.asarray(right[key])
        assert value.dtype == other.dtype and value.shape == other.shape, key
        assert value.tobytes() == other.tobytes(), key


def dense_state(session) -> dict:
    optimizer = session.trainer.dense_optimizer
    params = {f"param{i}": p.data for i, p in enumerate(session.model.parameters())}
    return {**params, **optimizer.state_dict()}


@pytest.mark.parametrize("num_shards", [1, 4])
@pytest.mark.parametrize("store_spec", ["cafe", "cafe_ml", "hash", "full"])
@pytest.mark.parametrize("store_dtype", ["float16", "float32", "float64"])
@pytest.mark.parametrize("model_name", ["dlrm", "wdl", "dcn"])
def test_array_step_is_the_graph_composition(model_name, store_dtype, store_spec, num_shards):
    config = quickstart(
        model__name=model_name,
        store__dtype=store_dtype,
        store__spec=store_spec,
        store__num_shards=num_shards,
    )
    with build(config) as graph, build(config) as array:
        stacked = num_shards > 1 and store_spec == "cafe"
        assert array.store.describe()["stacked"] is stacked
        stream = graph.dataset.training_stream(graph.batch_size)
        for batch in islice(stream, STEPS):
            _, leaf, loss, _ = run_step(graph, batch)
            value, grad = array.trainer._step(batch)
            assert np.float64(value).tobytes() == np.float64(loss.data).tobytes()
            assert grad.dtype == leaf.grad.dtype and grad.tobytes() == leaf.grad.tobytes()
        assert array.trainer.global_step == STEPS
        assert_same_bytes(dense_state(graph), dense_state(array))
        assert_same_bytes(graph.store.state_dict(), array.store.state_dict())


def test_gradient_norms_are_the_graph_compositions():
    with build(quickstart(model__name="wdl", store__num_shards=4)) as graph, build(
        quickstart(model__name="wdl", store__num_shards=4)
    ) as array:
        batches = list(islice(graph.dataset.training_stream(graph.batch_size), STEPS))
        num_features = graph.schema.num_features
        expected = np.zeros(num_features, dtype=np.float64)
        for batch in batches:
            _, leaf, _, _ = run_step(graph, batch)
            norms = np.linalg.norm(leaf.grad.reshape(-1, graph.model.dim), axis=1)
            np.add.at(expected, batch.categorical.reshape(-1), norms)
        totals = array.trainer.collect_gradient_norms(batches, num_features)
        assert totals.tobytes() == expected.tobytes()
        assert_same_bytes(dense_state(graph), dense_state(array))


# --------------------------------------------------------------------------- #
# Labels are refused at the boundary
# --------------------------------------------------------------------------- #
def untouched_state(session) -> dict:
    """Every array a refused step must leave as it was."""
    store = session.store
    return {
        **{f"store/{k}": v.copy() for k, v in store.state_dict().items()},
        **{f"dense/{k}": np.array(v, copy=True) for k, v in dense_state(session).items()},
        "store_step": np.asarray(store.step()),
        "global_step": np.asarray(session.trainer.global_step),
    }


def bad_labels(batch: Batch, case: str) -> Batch:
    labels = batch.labels.copy()
    if case == "nan":
        labels[7] = np.nan
    elif case == "inf":
        labels[3] = np.inf
    elif case == "above_one":
        labels[0] = 2.0
    elif case == "below_zero":
        labels[-1] = -0.5
    elif case == "two_columns":
        labels = np.stack([labels, 1.0 - labels], axis=1)
    return Batch(batch.categorical, batch.numerical, labels)


@pytest.mark.parametrize(
    "case, error",
    [
        ("nan", InvalidLabelError),
        ("inf", InvalidLabelError),
        ("above_one", InvalidLabelError),
        ("below_zero", InvalidLabelError),
        ("two_columns", BatchShapeError),
    ],
)
def test_bad_labels_are_refused_before_the_lookup(case, error):
    assert issubclass(InvalidLabelError, BadBatchError) and issubclass(InvalidLabelError, ValueError)
    with build(quickstart(store__num_shards=4)) as session:
        stream = iter(session.dataset.training_stream(session.batch_size))
        session.trainer.train_step(next(stream))
        batch = bad_labels(next(stream), case)
        lookups = session.store.plan_stats.as_dict()
        before = untouched_state(session)
        with pytest.raises(error, match="labels"):
            session.trainer.train_step(batch)
        assert_same_bytes(before, untouched_state(session))
        assert session.store.plan_stats.as_dict() == lookups
        assert session.trainer.dense_optimizer.step_count == 1
        # The same rows with valid labels still train.
        session.trainer.train_step(Batch(batch.categorical, batch.numerical, np.zeros(len(batch))))
        assert session.trainer.dense_optimizer.step_count == 2


def test_labels_at_the_bounds_train():
    with build(quickstart()) as session:
        batch = next(iter(session.dataset.training_stream(session.batch_size)))
        labels = np.where(np.arange(len(batch)) % 2 == 0, 0.0, 1.0)
        assert np.isfinite(session.trainer.train_step(Batch(batch.categorical, batch.numerical, labels)))
