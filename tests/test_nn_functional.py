"""Numerical gradient checks for every op of the tests' per-op graph
(``tests/reference_graph.py``) and for the loss node of
``repro.nn.functional``; the array sigmoid and BCE against the formulas they
replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_graph as G
from repro.nn import functional as F
from repro.nn.tensor import Tensor

from reference_dense import concat


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build_loss, shape, seed=0, atol=1e-5):
    """Compare autograd and numerical gradients for a tensor of given shape."""
    rng = np.random.default_rng(seed)
    x_data = rng.normal(size=shape)

    x = Tensor(x_data.copy(), requires_grad=True)
    loss = build_loss(x)
    loss.backward()
    analytic = x.grad

    numeric = numerical_gradient(lambda arr: float(build_loss(Tensor(arr)).data), x_data.copy())
    assert np.allclose(analytic, numeric, atol=atol), (
        f"gradient mismatch: max diff {np.abs(analytic - numeric).max()}"
    )


class TestElementwiseGradients:
    def test_add(self):
        other = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        check_gradient(lambda x: G.sum(G.add(x, other)), (3, 4))

    def test_add_broadcast(self):
        bias = Tensor(np.random.default_rng(2).normal(size=(4,)))
        check_gradient(lambda x: G.sum(G.add(x, bias)), (3, 4))

    def test_add_broadcast_gradient_of_bias(self):
        x = Tensor(np.ones((3, 4)))
        bias = Tensor(np.zeros(4), requires_grad=True)
        G.sum(G.add(x, bias)).backward()
        assert np.allclose(bias.grad, [3.0, 3.0, 3.0, 3.0])

    def test_mul(self):
        other = Tensor(np.random.default_rng(4).normal(size=(3, 3)))
        check_gradient(lambda x: G.sum(G.mul(x, other)), (3, 3))

    def test_mul_broadcast_scalar_column(self):
        scalar_col = Tensor(np.random.default_rng(5).normal(size=(3, 1)))
        check_gradient(lambda x: G.sum(G.mul(x, scalar_col)), (3, 4))


class TestMatmulGradients:
    def test_matmul_left(self):
        right = Tensor(np.random.default_rng(6).normal(size=(4, 2)))
        check_gradient(lambda x: G.sum(G.matmul(x, right)), (3, 4))

    def test_matmul_right(self):
        left = Tensor(np.random.default_rng(7).normal(size=(3, 4)))
        check_gradient(lambda x: G.sum(G.matmul(left, x)), (4, 2))

    def test_matmul_both_require_grad(self):
        a = Tensor(np.random.default_rng(8).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(np.random.default_rng(9).normal(size=(3, 2)), requires_grad=True)
        G.sum(G.matmul(a, b)).backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3, 2)


    def test_linear_input(self):
        rng = np.random.default_rng(10)
        weight, bias = Tensor(rng.normal(size=(4, 2))), Tensor(rng.normal(size=(2,)))
        check_gradient(lambda x: G.sum(G.linear(x, weight, bias)), (3, 4))

    def test_linear_weight_and_bias(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 4)))
        bias = Tensor(rng.normal(size=(2,)))
        check_gradient(lambda w: G.sum(G.mul(G.linear(x, w, bias), 2.0)), (4, 2))
        weight = Tensor(rng.normal(size=(4, 2)))
        check_gradient(lambda b: G.sum(G.mul(G.linear(x, weight, b), 2.0)), (2,))


class TestShapeOpsGradients:
    def test_reshape(self):
        check_gradient(lambda x: G.sum(G.reshape(x, (6,))), (2, 3))

    def test_fields(self):
        check_gradient(lambda x: G.sum(G.mul(G.fields(x, 1, 3), 2.0)), (2, 4, 3))

    def test_fields_gradient_is_zero_outside_the_run(self):
        x = Tensor(np.ones((2, 4, 3)), requires_grad=True)
        G.sum(G.fields(x, 1, 3)).backward()
        assert np.array_equal(x.grad[:, 1:3], np.ones((2, 2, 3)))
        assert not x.grad[:, [0, 3]].any()

    # ``concat`` is the per-op oracle's own (tests/reference_dense.py).
    def test_concat(self):
        other = Tensor(np.random.default_rng(12).normal(size=(2, 3)))
        check_gradient(lambda x: G.sum(concat([x, other], axis=1)), (2, 4))

    def test_concat_gradient_split(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        G.sum(concat([a, b], axis=1)).backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)


class TestReductionGradients:
    def test_sum_all(self):
        check_gradient(lambda x: G.sum(x), (3, 4))

    def test_sum_axis(self):
        check_gradient(lambda x: G.sum(G.sum(x, axis=1)), (3, 4))

    def test_mean_all(self):
        check_gradient(lambda x: G.mean(x), (4, 2))

    def test_mean_axis_keepdims(self):
        check_gradient(lambda x: G.sum(G.mean(x, axis=0, keepdims=True)), (3, 5))


class TestActivationGradients:
    def test_relu(self):
        check_gradient(lambda x: G.sum(G.relu(x)), (4, 4))

    def test_relu_zeroes_negative(self):
        x = Tensor([[-1.0, 2.0]], requires_grad=True)
        G.sum(G.relu(x)).backward()
        assert np.allclose(x.grad, [[0.0, 1.0]])

    def test_sigmoid_range(self):
        out = F.sigmoid_array(np.asarray([-100.0, 0.0, 100.0]))
        assert np.all(out >= 0) and np.all(out <= 1)
        assert out[1] == pytest.approx(0.5)

    def test_sigmoid_extreme_values_stable(self):
        with np.errstate(over="raise"):
            out = F.sigmoid_array(np.asarray([-1000.0, 1000.0]))
        assert not np.any(np.isnan(out))


class TestBCEWithLogits:
    def test_matches_reference_value(self):
        logits = np.asarray([0.0, 2.0, -3.0])
        targets = np.asarray([1.0, 0.0, 1.0])
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets)
        probs = 1 / (1 + np.exp(-logits))
        expected = -np.mean(targets * np.log(probs) + (1 - targets) * np.log(1 - probs))
        assert float(loss.data) == pytest.approx(expected, rel=1e-9)

    def test_gradient(self):
        targets = np.asarray([1.0, 0.0, 1.0, 0.0])
        check_gradient(
            lambda x: F.binary_cross_entropy_with_logits(x, targets), (4,), atol=1e-6
        )

    def test_extreme_logits_stable(self):
        loss = F.binary_cross_entropy_with_logits(Tensor([1000.0, -1000.0]), np.asarray([1.0, 0.0]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-9)
        loss_bad = F.binary_cross_entropy_with_logits(Tensor([-1000.0]), np.asarray([1.0]))
        assert np.isfinite(float(loss_bad.data))


# --------------------------------------------------------------------------- #
# The array forms the training step calls, against the formulas they replaced
# --------------------------------------------------------------------------- #
def two_branch_sigmoid(z: np.ndarray) -> np.ndarray:
    """The masked sigmoid the graph sigmoid, the loss and ``predict_proba`` used."""
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def graph_bce(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(loss, d loss / dz)`` as the BCE node computed them, with its own exps."""
    losses = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    loss = np.asarray(losses.mean(dtype=np.float64), dtype=z.dtype)
    grad = two_branch_sigmoid(z)
    grad -= y
    grad /= z.size
    return loss, grad


SPECIAL_LOGITS = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 88.5, -88.5, 89.0, -89.0, 710.0, -710.0, 1e30, -1e30
]


def logits_and_labels(dtype, size, special, seed):
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(size) * rng.choice([1.0, 30.0, 120.0], size)).astype(dtype)
    z[: len(special)] = np.asarray(special, dtype=dtype)[:size]
    return z, (rng.random(size) < 0.4).astype(dtype)


@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    size=st.integers(1, 300),
    special=st.lists(st.sampled_from(SPECIAL_LOGITS), max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_sigmoid_and_bce_arrays_are_the_old_formulas_bytes(dtype, size, special, seed):
    z, y = logits_and_labels(dtype, size, special, seed)
    with np.errstate(invalid="ignore", over="ignore"):
        expected_loss, expected_grad = graph_bce(z, y)
        loss, e = F.bce_with_logits_array(z, y)
        grad = F.bce_with_logits_backward_array(z, y, e)
        assert F.sigmoid_array(z).tobytes() == two_branch_sigmoid(z).tobytes()
    assert loss.dtype == grad.dtype == z.dtype and loss.shape == ()
    assert loss.tobytes() == expected_loss.tobytes()
    assert grad.tobytes() == expected_grad.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_special_logits_are_the_old_bytes(dtype):
    # Every special value in one array, so each case runs on every pass
    # (``-|z|`` instead of ``min(z, -z)`` flips a float64 NaN's sign bit).
    z = np.asarray(SPECIAL_LOGITS, dtype=dtype)
    y = np.resize(np.asarray([0.0, 1.0], dtype=dtype), z.size)
    with np.errstate(invalid="ignore", over="ignore"):
        assert F.sigmoid_array(z).tobytes() == two_branch_sigmoid(z).tobytes()
        loss, e = F.bce_with_logits_array(z, y)
        expected_loss, expected_grad = graph_bce(z, y)
        assert loss.tobytes() == expected_loss.tobytes()
        assert F.bce_with_logits_backward_array(z, y, e).tobytes() == expected_grad.tobytes()
