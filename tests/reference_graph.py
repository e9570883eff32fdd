"""The per-op autograd graph the dense passes are checked against.

Every model computes its dense network over arrays (``forward_array`` /
``backward_array``, ``dense_forward`` / ``dense_backward``) and
``Trainer`` trains it with no graph.  The slow, obviously correct form
lives here: one ``repro.nn.tensor.make_node`` per operation, each with its
own backward closure, over the *same* ``Parameter`` objects, so a graph
built from these ops fills ``leaf.grad`` and every ``param.grad`` the way
the array code must, bit for bit.  ``tests/reference_dense.py`` composes the
built-in models from them; ``tests/test_custom_model.py`` the example's
two-tower model.  ``tests/test_nn_functional.py`` gradient-checks every op.

Precision: an op computes in the dtype of its operands; a Python number
(or any dtype-less value) meeting a tensor adopts the tensor's dtype.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import ArrayLike, Tensor, get_default_dtype, make_node

# Gradient ownership: a backward closure passes ``owned=True`` to
# ``Tensor._accumulate_grad`` exactly when the array it hands over was
# allocated inside that closure and goes to one tensor only; the incoming
# ``grad`` (the child's own ``.grad``), views of it and arrays given to two
# parents are passed unowned and get copied on first accumulation.


def ensure_tensor(value: Tensor | ArrayLike, dtype: np.dtype | None = None) -> Tensor:
    """``value`` as a tensor; a value with no float dtype becomes ``dtype``
    (default: the library default, float64)."""
    if isinstance(value, Tensor):
        return value
    if not (isinstance(value, (np.ndarray, np.floating)) and np.asarray(value).dtype.kind == "f"):
        value = np.asarray(value, dtype=dtype or get_default_dtype())
    return Tensor(value)


def ensure_tensors(a: Tensor | ArrayLike, b: Tensor | ArrayLike) -> tuple[Tensor, Tensor]:
    """Both operands of a binary operation as tensors; a dtype-less one
    adopts the dtype of the tensor it meets (as a 0-d float64 array it would
    promote a float32 operand)."""
    if isinstance(a, Tensor):
        return a, ensure_tensor(b, a.data.dtype)
    b = ensure_tensor(b)
    return ensure_tensor(a, b.data.dtype), b


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _accumulate_unbroadcast(tensor: Tensor, grad: np.ndarray, fresh: bool = False) -> None:
    """Accumulate ``grad`` summed down to ``tensor``'s shape.

    ``fresh`` says ``grad`` itself may be adopted; a reduction always
    produces a new array, which may be adopted either way.
    """
    reduced = _unbroadcast(grad, tensor.shape)
    tensor._accumulate_grad(reduced, owned=fresh or reduced is not grad)


# --------------------------------------------------------------------------- #
# Element-wise arithmetic and linear algebra
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


def mul(a: Tensor | ArrayLike, b: Tensor | ArrayLike) -> Tensor:
    a, b = ensure_tensors(a, b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate_unbroadcast(a, grad * b.data, fresh=True)
        if b.requires_grad:
            _accumulate_unbroadcast(b, grad * a.data, fresh=True)

    return make_node(out_data, (a, b), backward)


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
    """``x @ weight + bias`` as one node (equal, value for value, to
    ``add(matmul(x, weight), bias)``; its backward produces all three
    gradients itself, so none is a copy of the incoming gradient)."""
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


def fields(x: Tensor, start: int, stop: int) -> Tensor:
    """``x[:, start:stop]``: a run of axis 1 (fields of a ``(batch, fields,
    dim)`` tensor); its gradient is zero outside the run."""
    x = ensure_tensor(x)
    out_data = x.data[:, start:stop]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[:, start:stop] = grad
            x._accumulate_grad(full, owned=True)

    return make_node(out_data, (x,), backward)


# --------------------------------------------------------------------------- #
# Reductions
# --------------------------------------------------------------------------- #
def sum(x: Tensor, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:  # noqa: A001 - mirrors np.sum
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


# --------------------------------------------------------------------------- #
# The repro.nn layers, composed from the ops above
# --------------------------------------------------------------------------- #
def linear_layer(layer, x: Tensor) -> Tensor:
    """A :class:`repro.nn.Linear` over its own parameters."""
    return linear(x, layer.weight, layer.bias)


def mlp(module, x: Tensor) -> Tensor:
    """A :class:`repro.nn.MLP`: its Linear layers with ReLUs between them."""
    last = len(module.layers) - 1
    for i, layer in enumerate(module.layers):
        x = linear_layer(layer, x)
        if i < last:
            x = relu(x)
    return x


def cross_network(network, x0: Tensor) -> Tensor:
    """A :class:`repro.nn.CrossNetwork`: ``x_{l+1} = x_0 * (x_l w_l) + b_l + x_l``."""
    x = x0
    for weight, bias in zip(network.weights, network.biases):
        projected = matmul(x, weight)  # (batch, 1): x_l . w_l per sample
        crossed = mul(x0, projected)  # broadcast over the feature axis
        x = add(add(crossed, bias), x)
    return x
