"""Differentiable operations over :class:`repro.nn.tensor.Tensor`.

Each function builds the forward result eagerly and registers a closure that
propagates gradients to its inputs.  This per-op engine is what a custom
model built from ``repro.nn`` layers runs on (``examples/custom_model_
integration.py``) and the oracle the built-in models' dense pass is tested
against (``tests/reference_dense.py``).  The built-in DLRM / WDL / DCN train
with no graph: ``Trainer`` calls their array forward and backward and the
array functions here (:func:`bce_with_logits_array`,
:func:`bce_with_logits_backward_array`, :func:`sigmoid_array`), which the
graph forms of the loss and the sigmoid wrap.  Every operation here is
exercised by gradient-checking tests.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import (
    ArrayLike,
    Tensor,
    _unbroadcast,
    ensure_tensor,
    ensure_tensors,
    make_node,
)

# Gradient ownership: a backward closure passes ``owned=True`` to
# ``Tensor._accumulate_grad`` exactly when the array it hands over was
# allocated inside that closure and goes to one tensor only; the incoming
# ``grad`` (the child's own ``.grad``), views of it and arrays given to two
# parents are passed unowned and get copied on first accumulation.


def _accumulate_unbroadcast(tensor: Tensor, grad: np.ndarray, fresh: bool = False) -> None:
    """Accumulate ``grad`` summed down to ``tensor``'s shape.

    ``fresh`` says ``grad`` itself may be adopted; a reduction always
    produces a new array, which may be adopted either way.
    """
    reduced = _unbroadcast(grad, tensor.shape)
    tensor._accumulate_grad(reduced, owned=fresh or reduced is not grad)


# --------------------------------------------------------------------------- #
# Element-wise arithmetic
# --------------------------------------------------------------------------- #
def add(a: Tensor | ArrayLike, b: Tensor | ArrayLike) -> Tensor:
    a, b = ensure_tensors(a, b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate_unbroadcast(a, grad)
        if b.requires_grad:
            _accumulate_unbroadcast(b, grad)

    return make_node(out_data, (a, b), backward)


def sub(a: Tensor | ArrayLike, b: Tensor | ArrayLike) -> Tensor:
    a, b = ensure_tensors(a, b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate_unbroadcast(a, grad)
        if b.requires_grad:
            _accumulate_unbroadcast(b, -grad, fresh=True)

    return make_node(out_data, (a, b), backward)


def mul(a: Tensor | ArrayLike, b: Tensor | ArrayLike) -> Tensor:
    a, b = ensure_tensors(a, b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate_unbroadcast(a, grad * b.data, fresh=True)
        if b.requires_grad:
            _accumulate_unbroadcast(b, grad * a.data, fresh=True)

    return make_node(out_data, (a, b), backward)


# --------------------------------------------------------------------------- #
# Linear algebra
# --------------------------------------------------------------------------- #
def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = ensure_tensors(a, b)
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        # The swapped operands are views; BLAS takes them as transposed.
        if a.requires_grad:
            _accumulate_unbroadcast(a, grad @ np.swapaxes(b.data, -1, -2), fresh=True)
        if b.requires_grad:
            _accumulate_unbroadcast(b, np.swapaxes(a.data, -1, -2) @ grad, fresh=True)

    return make_node(out_data, (a, b), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` as one graph node.

    Equal, value for value, to ``add(matmul(x, weight), bias)``; as one node
    its backward produces all three gradients itself, so none of them is a
    copy of the incoming gradient.
    """
    x = ensure_tensor(x)
    out_data = x.data @ weight.data
    out_data += bias.data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate_grad(grad @ weight.data.T, owned=True)
        rows = grad.reshape(-1, grad.shape[-1])
        if weight.requires_grad:
            inputs = x.data.reshape(-1, x.shape[-1])
            weight._accumulate_grad(inputs.T @ rows, owned=True)
        if bias.requires_grad:
            bias._accumulate_grad(rows.sum(axis=0), owned=True)

    return make_node(out_data, (x, weight, bias), backward)


# --------------------------------------------------------------------------- #
# Shape manipulation
# --------------------------------------------------------------------------- #
def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = ensure_tensor(x)
    out_data = x.data.reshape(shape)
    original_shape = x.shape

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate_grad(grad.reshape(original_shape))  # a view of grad

    return make_node(out_data, (x,), backward)


# --------------------------------------------------------------------------- #
# Reductions
# --------------------------------------------------------------------------- #
def sum(x: Tensor, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:  # shadows the builtin on purpose: mirrors np.sum in the functional namespace
    x = ensure_tensor(x)
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        x._accumulate_grad(np.broadcast_to(g, x.shape).copy(), owned=True)

    return make_node(out_data, (x,), backward)


def mean(x: Tensor, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    x = ensure_tensor(x)
    out_data = x.data.mean(axis=axis, keepdims=keepdims)
    denom = x.data.size / out_data.size

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        x._accumulate_grad(np.broadcast_to(g / denom, x.shape).copy(), owned=True)

    return make_node(out_data, (x,), backward)


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    x = ensure_tensor(x)
    out_data = np.maximum(x.data, 0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate_grad(grad * (out_data > 0), owned=True)

    return make_node(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    x = ensure_tensor(x)
    out_data = sigmoid_array(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate_grad(grad * out_data * (1.0 - out_data), owned=True)

    return make_node(out_data, (x,), backward)


def sigmoid_array(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """The logistic function of ``z``, with no overflow at either tail.

    With ``e = exp(-|z|)`` (pass it when it is already computed, see
    :func:`bce_with_logits_array`) the result is ``1 / (1 + e)`` where
    ``z >= 0`` and ``e / (1 + e)`` elsewhere.  This is the one sigmoid of the
    library: the loss gradient, :func:`sigmoid` and ``predict_proba`` all
    call it.
    """
    if e is None:
        e = _exp_neg_abs(z)
    denom = 1.0 + e
    return np.where(z >= 0, 1.0 / denom, e / denom)


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    """``exp(-|z|)``, with ``-|z|`` taken as ``min(z, -z)``: the same value,
    except that a NaN keeps its sign, as ``exp(z)`` of a negative-branch
    sigmoid would."""
    return np.exp(np.minimum(z, -z))


# --------------------------------------------------------------------------- #
# Losses
# --------------------------------------------------------------------------- #
def bce_with_logits_array(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean binary cross entropy of logits ``z`` against targets ``y`` (same
    shape and dtype), as ``(0-d loss in z's dtype, exp(-|z|))``.

    Uses ``BCE(z, y) = max(z, 0) - z*y + log(1 + exp(-|z|))``, averaged in
    double; the second value is what :func:`bce_with_logits_backward_array`
    reuses, so one step computes one ``exp``.
    """
    e = _exp_neg_abs(z)
    losses = np.maximum(z, 0.0) - z * y + np.log1p(e)
    return np.asarray(losses.mean(dtype=np.float64), dtype=z.dtype), e


def bce_with_logits_backward_array(z: np.ndarray, y: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Gradient of :func:`bce_with_logits_array`'s mean loss with respect to
    ``z``: ``(sigmoid(z) - y) / z.size``, a new array."""
    grad = sigmoid_array(z, e)
    grad -= y
    grad /= z.size
    return grad


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross entropy computed from raw logits (numerically stable).

    The graph form of :func:`bce_with_logits_array` and
    :func:`bce_with_logits_backward_array`; the gradient is
    ``sigmoid(z) - y`` over the batch, matching
    ``torch.nn.BCEWithLogitsLoss(reduction="mean")``.
    """
    logits = ensure_tensor(logits)
    z = logits.data
    y = np.asarray(targets, dtype=z.dtype).reshape(z.shape)
    out_data, e = bce_with_logits_array(z, y)

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            grad_logits = bce_with_logits_backward_array(z, y, e)
            grad_logits *= grad
            logits._accumulate_grad(grad_logits, owned=True)

    return make_node(out_data, (logits,), backward)
