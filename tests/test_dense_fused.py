"""The fused dense node against the per-op graph it replaced.

Every built-in model computes its dense network as one graph node over
hand-written array code (``repro.models``).  Here it is run beside
``tests/reference_dense.py``'s composed graph over the same parameters:
logits, ``leaf.grad`` and every ``param.grad`` must be bit-identical, for
DLRM / WDL / DCN in float32 and float64, with and without numerical
features, at several batch sizes and over a few optimizer steps.  The
1 500-step goldens in ``test_dense_precision.py`` skip on a BLAS that rounds
differently; this test runs everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.embeddings.full import FullEmbedding
from repro.models import MODEL_NAMES, create_model
from repro.nn import functional as F
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor

from reference_dense import reference_of

FIELDS, DIM, FEATURES = 5, 4, 200


def make_model(name, dtype, num_numerical):
    embedding = FullEmbedding(FEATURES, DIM, rng=0, dtype=dtype)
    return create_model(name, embedding, FIELDS, num_numerical, rng=1)


def run(forward_dense, model, vectors, numerical, labels):
    """One dense forward + BCE + backward; what it produced, copied."""
    leaf = Tensor(vectors.copy(), requires_grad=True)
    logits = forward_dense(leaf, numerical)
    loss = F.binary_cross_entropy_with_logits(logits, labels)
    model.zero_grad()
    loss.backward()
    return [logits.data.copy(), leaf.grad.copy()] + [p.grad.copy() for p in model.parameters()]


def assert_bit_identical(fused, reference):
    assert len(fused) == len(reference)
    for index, (got, want) in enumerate(zip(fused, reference)):
        assert got.dtype == want.dtype and got.shape == want.shape, index
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), f"array {index} differs"


@pytest.mark.parametrize("name", MODEL_NAMES)
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("num_numerical", [0, 3])
def test_fused_node_equals_the_per_op_graph(name, dtype, num_numerical):
    model = make_model(name, dtype, num_numerical)
    reference = reference_of(model)
    optimizer = Adam(list(model.parameters()), lr=0.05)
    rng = np.random.default_rng(7)
    for rows in (1, 3, 64, 129, 64):  # the repeat reuses a workspace
        vectors = rng.normal(size=(rows, FIELDS, DIM)).astype(dtype)
        numerical = rng.normal(size=(rows, num_numerical))  # float64: cast by the model
        labels = rng.integers(0, 2, size=rows).astype(float)
        fused = run(model.forward_dense, model, vectors, numerical, labels)
        assert_bit_identical(fused, run(reference.forward_dense, model, vectors, numerical, labels))
        optimizer.step()  # move the weights (and wake dead units) for the next batch


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("seed", [1, 2, 4])
def test_dcn_sums_its_input_gradient_in_graph_order(seed, dtype):
    # x0 collects one contribution per cross layer plus three more; float
    # addition does not commute over three terms, so any order but the
    # graph's shows here, in either precision.
    model = make_model("dcn", dtype, 2)
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(33, FIELDS, DIM)).astype(dtype)
    numerical, labels = rng.normal(size=(33, 2)), rng.integers(0, 2, size=33).astype(float)
    fused = run(model.forward_dense, model, vectors, numerical, labels)
    reference = run(reference_of(model).forward_dense, model, vectors, numerical, labels)
    assert_bit_identical(fused, reference)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_forward_dense_is_one_node_over_the_leaf_and_the_parameters(name):
    model = make_model(name, "float32", 3)
    leaf = Tensor(np.ones((4, FIELDS, DIM), dtype=np.float32), requires_grad=True)
    logits = model.forward_dense(leaf, np.zeros((4, 3)))
    assert logits.requires_grad and logits.shape == (4,)
    assert logits._parents == (leaf, *model.parameters())


def test_backward_after_a_later_forward_at_the_same_size_is_refused():
    model = make_model("dlrm", "float32", 3)
    first = model.forward_dense(Tensor(np.ones((4, FIELDS, DIM)), requires_grad=True), np.ones((4, 3)))
    model.predict_proba(np.zeros((4, FIELDS), dtype=np.int64), np.ones((4, 3)))
    with pytest.raises(RuntimeError, match="overwrote"):
        first.backward(np.ones(4, dtype=np.float32))


def test_a_forward_at_another_size_leaves_a_pending_backward_intact():
    model = make_model("wdl", "float64", 3)
    rng = np.random.default_rng(0)
    vectors, numerical = rng.normal(size=(8, FIELDS, DIM)), rng.normal(size=(8, 3))
    expected = run(reference_of(model).forward_dense, model, vectors, numerical, np.ones(8))
    leaf = Tensor(vectors.copy(), requires_grad=True)
    logits = model.forward_dense(leaf, numerical)
    model.predict_proba(np.zeros((5, FIELDS), dtype=np.int64), np.ones((5, 3)))
    model.zero_grad()
    F.binary_cross_entropy_with_logits(logits, np.ones(8)).backward()
    assert np.array_equal(leaf.grad, expected[1])


def test_a_held_embedding_gradient_is_never_overwritten():
    model = make_model("dlrm", "float32", 3)
    rng = np.random.default_rng(3)

    def step() -> np.ndarray:
        leaf = Tensor(rng.normal(size=(16, FIELDS, DIM)).astype(np.float32), requires_grad=True)
        model.forward_dense(leaf, rng.normal(size=(16, 3))).backward(np.ones(16, dtype=np.float32))
        return leaf.grad

    held = step()
    kept = held.copy()
    second = step()
    assert not np.shares_memory(held, second) and np.array_equal(held, kept)
    address = second.__array_interface__["data"][0]
    del second  # nobody holds it now: the next step may write its buffer again
    assert step().__array_interface__["data"][0] == address
    assert np.array_equal(held, kept)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_an_empty_batch_predicts_nothing(name):
    model = make_model(name, "float32", 3)
    assert model.predict_proba(np.zeros((0, FIELDS), dtype=np.int64), np.zeros((0, 3))).shape == (0,)
