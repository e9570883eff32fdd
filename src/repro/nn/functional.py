"""Differentiable operations over :class:`repro.nn.tensor.Tensor`.

Each function builds the forward result eagerly and registers a closure that
propagates gradients to its inputs.  Only the operations required by the
recommendation models and losses in this library are implemented; they are
all exercised by gradient-checking tests in ``tests/nn``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.nn.tensor import (
    ArrayLike,
    Tensor,
    _unbroadcast,
    ensure_tensor,
    ensure_tensors,
    is_grad_enabled,
)

# Gradient ownership: a backward closure passes ``owned=True`` to
# ``Tensor._accumulate_grad`` exactly when the array it hands over was
# allocated inside that closure and goes to one tensor only; the incoming
# ``grad`` (the child's own ``.grad``), views of it and arrays given to two
# parents are passed unowned and get copied on first accumulation.


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if is_grad_enabled():
        parents = tuple([p for p in parents if p.requires_grad])
        if parents:
            return Tensor(data, True, parents, backward_fn)
    return Tensor(data)


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

    return _make(out_data, (a, b), backward)


def sub(a: Tensor | ArrayLike, b: Tensor | ArrayLike) -> Tensor:
    a, b = ensure_tensors(a, b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate_unbroadcast(a, grad)
        if b.requires_grad:
            _accumulate_unbroadcast(b, -grad, fresh=True)

    return _make(out_data, (a, b), backward)


def mul(a: Tensor | ArrayLike, b: Tensor | ArrayLike) -> Tensor:
    a, b = ensure_tensors(a, b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate_unbroadcast(a, grad * b.data, fresh=True)
        if b.requires_grad:
            _accumulate_unbroadcast(b, grad * a.data, fresh=True)

    return _make(out_data, (a, b), backward)


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

    return _make(out_data, (a, b), backward)


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

    return _make(out_data, (x, weight, bias), backward)


def batched_outer_interaction(x: Tensor) -> Tensor:
    """Pairwise dot products between field embeddings (DLRM interaction).

    ``x`` has shape ``(batch, fields, dim)``; the result contains, for every
    sample, the strictly-lower-triangular entries of ``x @ x^T`` flattened to
    shape ``(batch, fields * (fields - 1) / 2)`` in the order of
    ``np.tril_indices(fields, -1)``: row ``i`` of the Gram matrix contributes
    its first ``i`` columns, rows in increasing order.
    """
    x = ensure_tensor(x)
    batch, fields, _ = x.shape
    gram = x.data @ np.ascontiguousarray(np.swapaxes(x.data, 1, 2))
    out_data = np.concatenate([gram[:, i, :i] for i in range(fields)], axis=1)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        if fields < 2:  # no pairs: the output is empty and says nothing about x
            x._accumulate_grad(np.zeros_like(x.data), owned=True)
            return
        # d(x_i . x_j) reaches both rows i and j, so the gradient of the Gram
        # matrix is symmetric with a zero diagonal: gather it whole, then one
        # batched matmul.
        grad_gram = np.take(grad, _pair_of_gram_cell(fields), axis=1)
        grad_gram = grad_gram.reshape(batch, fields, fields)
        diagonal = np.arange(fields)
        grad_gram[:, diagonal, diagonal] = 0
        x._accumulate_grad(grad_gram @ x.data, owned=True)

    return _make(out_data, (x,), backward)


@lru_cache(maxsize=16)
def _pair_of_gram_cell(fields: int) -> np.ndarray:
    """For each cell ``(i, j)`` of a flattened ``fields x fields`` Gram matrix,
    the position of the pair ``{i, j}`` in ``np.tril_indices(fields, -1)``
    order (diagonal cells, which belong to no pair, hold 0).  Read-only: the
    one array is shared by every caller.
    """
    rows, cols = np.tril_indices(fields, -1)
    pair = np.arange(rows.size)
    cells = np.zeros((fields, fields), dtype=np.intp)
    cells[rows, cols] = pair
    cells[cols, rows] = pair
    cells = cells.reshape(-1)
    cells.setflags(write=False)
    return cells


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

    return _make(out_data, (x,), backward)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        # The split points are backward-only work: a forward that is never
        # differentiated (serving) does not pay for them.
        boundaries = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        pieces = np.split(grad, boundaries, axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate_grad(piece)  # a view of grad

    return _make(out_data, tuple(tensors), backward)


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

    return _make(out_data, (x,), backward)


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

    return _make(out_data, (x,), backward)


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    x = ensure_tensor(x)
    out_data = np.maximum(x.data, 0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate_grad(grad * (out_data > 0), owned=True)

    return _make(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    x = ensure_tensor(x)
    out_data = _stable_sigmoid(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate_grad(grad * out_data * (1.0 - out_data), owned=True)

    return _make(out_data, (x,), backward)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


# --------------------------------------------------------------------------- #
# Embedding gather
# --------------------------------------------------------------------------- #
def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows ``indices`` from 2-D ``table``; gradient scatters back.

    ``indices`` may have any shape; the output has shape
    ``indices.shape + (table.shape[1],)``.  The backward pass accumulates with
    ``np.add.at`` so repeated indices within a batch sum their gradients, the
    same semantics as a sparse embedding lookup in PyTorch.
    """
    table = ensure_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    out_data = table.data[idx]

    def backward(grad: np.ndarray) -> None:
        if not table.requires_grad:
            return
        grad_table = np.zeros_like(table.data)
        np.add.at(grad_table, idx.reshape(-1), grad.reshape(-1, table.data.shape[1]))
        table._accumulate_grad(grad_table, owned=True)

    return _make(out_data, (table,), backward)


# --------------------------------------------------------------------------- #
# Losses
# --------------------------------------------------------------------------- #
def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross entropy computed from raw logits (numerically stable).

    Uses the identity ``BCE(z, y) = max(z, 0) - z*y + log(1 + exp(-|z|))`` and
    the gradient ``sigmoid(z) - y``, matching
    ``torch.nn.BCEWithLogitsLoss(reduction="mean")``.
    """
    logits = ensure_tensor(logits)
    z = logits.data
    y = np.asarray(targets, dtype=z.dtype).reshape(z.shape)
    losses = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    # One scalar: reduced in double, stored in the graph's dtype.
    out_data = np.asarray(losses.mean(dtype=np.float64), dtype=z.dtype)
    count = z.size

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            grad_logits = _stable_sigmoid(z)
            grad_logits -= y
            grad_logits /= count
            grad_logits *= grad
            logits._accumulate_grad(grad_logits, owned=True)

    return _make(out_data, (logits,), backward)
