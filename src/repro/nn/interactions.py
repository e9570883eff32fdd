"""Feature-interaction layers used by DLRM, WDL and DCN.

The three models in the paper (Section 5.1.1) differ only in how they combine
field embeddings with the dense features:

* DLRM performs pairwise dot products between embeddings (``DotInteraction``),
* DCN multiplies embeddings with learned projections producing element-level
  cross terms (``CrossNetwork``),
* WDL feeds the concatenated embeddings to a wide (single linear) part and a
  deep MLP and sums the two predictions (handled in ``repro.models.wdl``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.nn.init import DTypeLike
from repro.nn.layers import Workspace
from repro.nn.module import Module
from repro.nn.tensor import Parameter, get_default_dtype
from repro.utils.rng import SeedLike, make_rng


class DotInteraction(Module):
    """DLRM's pairwise dot-product interaction.

    Input is the per-field embedding tensor of shape ``(batch, fields, dim)``
    (optionally with the projected dense features appended as an extra "field")
    and the output is, for every sample, the strictly-lower-triangular entries
    of the Gram matrix ``x @ x^T`` flattened to ``(batch, fields*(fields-1)/2)``
    in ``np.tril_indices(fields, -1)`` order: row ``i`` contributes its first
    ``i`` columns, rows in increasing order.
    """

    def forward_array(self, x: np.ndarray, ws: Workspace) -> np.ndarray:
        """The pair products of ``x``, a view of this layer's ``(self, "x")``
        region.  Its ``self.gram`` region is dead when this returns (until
        :meth:`backward_array`), so a caller may lay a product of its own
        there."""
        batch, fields, dim = x.shape
        transposed = ws((self, "x"), dim, fields)
        np.copyto(transposed, np.swapaxes(x, 1, 2))
        gram = np.matmul(x, transposed, out=ws(self.gram, fields, fields))
        # The transposed copy is dead: the pairs go to its region.  A mode
        # other than the default "raise" lets take write there directly (the
        # default stages every result in a fresh buffer); the indices are in
        # range, so "wrap" is the bits of "clip", and measured ~20 % faster.
        out = ws((self, "x"), self.output_dim(fields))
        cells = gram.reshape(batch, fields * fields)
        return np.take(cells, _gram_cell_of_pair(fields), 1, out, "wrap")

    def backward_array(self, x: np.ndarray, dy: np.ndarray, ws: Workspace) -> np.ndarray:
        """The gradient at ``x`` for upstream ``dy``, a view of the
        ``(self, "x")`` region (the forward's output is dead by now)."""
        batch, fields, dim = x.shape
        dx = ws((self, "x"), fields, dim)
        if fields < 2:  # no pairs: the output is empty and says nothing about x
            dx[...] = 0
            return dx
        # d(x_i . x_j) reaches both rows i and j, so the gradient of the Gram
        # matrix is symmetric with a zero diagonal: gather it whole, then one
        # batched matmul.
        grad_gram = ws(self.gram, fields, fields)
        cells = grad_gram.reshape(batch, fields * fields)
        np.take(dy, _pair_of_gram_cell(fields), 1, cells, "wrap")
        cells[:, :: fields + 1] = 0
        return np.matmul(grad_gram, x, out=dx)

    @property
    def gram(self) -> tuple["DotInteraction", str]:
        """The workspace key of the Gram matrix (and of its gradient)."""
        return (self, "gram")

    @staticmethod
    def output_dim(num_fields: int) -> int:
        return num_fields * (num_fields - 1) // 2


@lru_cache(maxsize=16)
def _gram_cell_of_pair(fields: int) -> np.ndarray:
    """For each pair in ``np.tril_indices(fields, -1)`` order, its cell in a
    flattened ``fields x fields`` Gram matrix.  Read-only and shared."""
    rows, cols = np.tril_indices(fields, -1)
    cells = rows * fields + cols
    cells.setflags(write=False)
    return cells


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


class CrossNetwork(Module):
    """DCN cross network: ``x_{l+1} = x_0 * (x_l w_l) + b_l + x_l``.

    Each layer produces element-level feature crosses of increasing degree
    while keeping the dimensionality fixed.
    """

    def __init__(
        self, input_dim: int, num_layers: int, rng: SeedLike = None, dtype: DTypeLike = None
    ):
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        generator = make_rng(rng)
        dtype = np.dtype(dtype or get_default_dtype())
        self.input_dim = int(input_dim)
        self.num_layers = int(num_layers)
        scale = 1.0 / np.sqrt(input_dim)
        self.weights = [
            Parameter(
                generator.uniform(-scale, scale, size=(input_dim, 1)).astype(dtype, copy=False),
                name=f"cross_w{i}",
            )
            for i in range(num_layers)
        ]
        self.biases = [
            Parameter(np.zeros(input_dim, dtype=dtype), name=f"cross_b{i}")
            for i in range(num_layers)
        ]

    def forward_array(self, weights: Sequence[np.ndarray], x0: np.ndarray, ws: Workspace) -> np.ndarray:
        """The network's output for input ``x0`` under ``weights``
        (``[w_0.., b_0..]``, the ``parameters()`` order): layer ``l`` is
        ``x0 * (x @ w_l) + b_l + x``; the result is a workspace array."""
        layers, x = self.num_layers, x0
        for i in range(layers):
            projected = np.matmul(x, weights[i], out=ws((self, "p", i), 1))
            out = np.multiply(x0, projected, out=ws((self, "x", i), self.input_dim))
            out += weights[layers + i]
            out += x
            x = out
        return x

    def backward_array(
        self, weights: Sequence[np.ndarray], x0: np.ndarray, dy: np.ndarray, ws: Workspace,
        grads: Sequence[np.ndarray],
    ) -> np.ndarray:
        """``dx0`` of the last :meth:`forward_array` for upstream ``dy``, with
        the parameter gradients written into ``grads`` (``parameters()`` order).

        ``x0`` reaches the output through every layer's product and through
        layer 0's projection and residual; those contributions are summed in
        the order a per-op graph of the forward adds them — products of
        layers L-1 .. 1, then layer 0's residual, product and projection — so
        the result is bit-identical to it (``tests/reference_dense.py``).
        ``dx0`` is a workspace array.
        """
        layers, dim = self.num_layers, self.input_dim
        dx0 = ws((self, "dx0"), dim)
        term = ws((self, "term"), dim)
        g = ws((self, "g"), dim)  # the gradient at layer i's output
        np.copyto(g, dy)
        for i in range(layers - 1, -1, -1):
            projected = ws((self, "p", i), 1)
            inputs = ws((self, "x", i - 1), dim) if i else x0
            if i:  # the product's contribution to x0
                np.multiply(g, projected, out=dx0 if i == layers - 1 else term)
                if i < layers - 1:
                    dx0 += term
            np.multiply(g, x0, out=term)
            dprojected = np.sum(term, axis=1, keepdims=True, out=ws((self, "dp"), 1))
            np.matmul(inputs.T, dprojected, out=grads[i])
            np.sum(g, axis=0, out=grads[layers + i])
            through = np.matmul(dprojected, weights[i].T, out=ws((self, "mm"), dim))
            if i:  # x_{i-1} feeds the projection and the residual of layer i
                g += through
            else:
                if layers == 1:
                    np.copyto(dx0, g)
                else:
                    dx0 += g
                dx0 += np.multiply(g, projected, out=term)
                dx0 += through
        return dx0
