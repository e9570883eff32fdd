"""Dense layers: Linear and MLP stacks used by the recommendation models.

A layer holds its :class:`~repro.nn.tensor.Parameter` objects and computes
over plain arrays: ``forward_array`` / ``backward_array`` take the weights
passed in (``parameters()`` order) and keep every intermediate in a
:class:`Workspace`.  A model chains them into its dense pass, which
``Trainer`` runs with no graph.
"""

from __future__ import annotations

import math
import sys
from typing import Hashable, Sequence

import numpy as np

from repro.nn.init import DTypeLike, kaiming_uniform
from repro.nn.module import Module
from repro.nn.tensor import Parameter, get_default_dtype
from repro.utils.rng import SeedLike, make_rng


class Workspace:
    """Scratch arrays of one batch size, reused by every pass at that size.

    ``ws(key, *shape)`` is a ``(rows, *shape)`` view of the region filed
    under ``key`` (layers use themselves, or ``(self, name)``), allocated on
    first use, so a loop at one batch size maps no new pages.  A key may be
    taken again with another shape once what it held is dead — a layer's
    transposed input and its output, say — which keeps a forward pass's
    live set small; a region grows to its largest use.
    The next pass overwrites every region: nothing handed to a caller may
    be one of them.  ``passes`` counts the forward passes that claimed the
    workspace; a backward compares it with its own forward's count.
    """

    __slots__ = ("rows", "dtype", "passes", "_regions", "_views", "_handed_out")

    def __init__(self, rows: int, dtype: DTypeLike):
        self.rows = int(rows)
        self.dtype = np.dtype(dtype)
        self.passes = 0
        self._regions: dict[Hashable, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}
        self._handed_out: dict[Hashable, np.ndarray] = {}

    def __call__(self, key: Hashable, *shape: int, dtype: DTypeLike = None) -> np.ndarray:
        """The view; a key keeps the dtype of its first use (default: the
        workspace's)."""
        view = self._views.get((key, shape))
        if view is None:
            size = self.rows * math.prod(shape)
            region = self._regions.get(key)
            if region is None or region.size < size:
                region = self._regions[key] = np.empty(size, dtype=dtype or self.dtype)
                self._views.clear()  # views of a replaced region must not be handed out again
            view = self._views[key, shape] = region[:size].reshape(self.rows, *shape)
        return view

    def handout(self, key: Hashable, *shape: int) -> np.ndarray:
        """An array for a result the caller keeps (an embedding gradient).

        The one last handed out under ``key`` if nothing but this workspace
        references it any more, else a new one: a training loop that lets
        each step's gradient go reuses one buffer (a fresh 3 MB array per
        step makes glibc trim and re-fault the heap top), and a gradient
        somebody still holds is never overwritten.
        """
        array = self._handed_out.get(key)
        if array is None or sys.getrefcount(array) != _UNHELD:
            array = self._handed_out[key] = np.empty((self.rows, *shape), dtype=self.dtype)
        return array


def _unheld_refcount() -> int:
    """``sys.getrefcount`` of an array only a dict holds, read as
    :meth:`Workspace.handout` reads it (the count is interpreter-specific)."""
    held = {0: np.empty(0, dtype=np.float64)}
    array = held.get(0)
    return sys.getrefcount(array)


_UNHELD = _unheld_refcount()


def claim_workspace(current: Workspace | None, rows: int, dtype: DTypeLike) -> Workspace:
    """``current`` if it holds ``rows`` rows, else a new one; one more pass
    is counted on the result (one workspace per model: the last batch size)."""
    if current is None or current.rows != rows:
        current = Workspace(rows, dtype)
    current.passes += 1
    return current


class Linear(Module):
    """Fully connected layer ``y = x W + b``.

    ``dtype`` is the precision of the parameters (and so of everything
    computed from them); ``None`` is float64, the precision of a bare layer
    built outside a model (:func:`~repro.nn.tensor.get_default_dtype`).  The
    weights are drawn in float64 and rounded, so one seed gives the same
    layer at every precision up to that rounding.
    """

    def __init__(
        self, in_features: int, out_features: int, rng: SeedLike = None, dtype: DTypeLike = None
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        generator = make_rng(rng)
        dtype = np.dtype(dtype or get_default_dtype())
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(
            kaiming_uniform((in_features, out_features), generator, dtype=dtype), name="weight"
        )
        self.bias = Parameter(np.zeros(out_features, dtype=dtype), name="bias")

    def forward_array(self, weights: Sequence[np.ndarray], x: np.ndarray, ws: Workspace) -> np.ndarray:
        """``x @ W + b`` (``weights = [W, b]``) into this layer's workspace array."""
        weight, bias = weights
        out = ws(self, self.out_features)
        np.matmul(x, weight, out=out)
        out += bias
        return out

    def backward_array(
        self, weights: Sequence[np.ndarray], x: np.ndarray, dy: np.ndarray, ws: Workspace,
        grads: Sequence[np.ndarray], need_dx: bool = True,
    ) -> np.ndarray | None:
        """``dx`` at input ``x`` for upstream ``dy`` (a workspace array, ``None``
        unless ``need_dx``); ``[dW, db]`` are written into ``grads``."""
        dx = None
        if need_dx:
            dx = ws((self, "dx"), self.in_features)
            if self.out_features == 1:
                # A K = 1 matmul takes numpy's slow path.  The outer product
                # is the same bits once +0.0 is added: the matmul's sum
                # starts at +0.0, so a -0.0 product comes out +0.0.
                np.multiply(dy, weights[0].reshape(1, -1), out=dx)
                dx += 0.0
            else:
                np.matmul(dy, weights[0].T, out=dx)
        np.matmul(x.T, dy, out=grads[0])
        np.sum(dy, axis=0, out=grads[1])
        return dx


class MLP(Module):
    """A stack of Linear layers with ReLU activations between them; the
    output is raw (the models return logits and the loss applies the
    sigmoid)."""

    def __init__(self, layer_sizes: list[int], rng: SeedLike = None, dtype: DTypeLike = None):
        if len(layer_sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        generator = make_rng(rng)
        self.layer_sizes = list(int(s) for s in layer_sizes)
        self.layers = [
            Linear(self.layer_sizes[i], self.layer_sizes[i + 1], rng=generator, dtype=dtype)
            for i in range(len(self.layer_sizes) - 1)
        ]

    def forward_array(self, weights: Sequence[np.ndarray], x: np.ndarray, ws: Workspace) -> np.ndarray:
        """The stack's output for input ``x``: the last layer's workspace array."""
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer.forward_array(weights[2 * i: 2 * i + 2], x, ws)
            if i < last:
                np.maximum(x, 0, out=x)
        return x

    def backward_array(
        self, weights: Sequence[np.ndarray], x: np.ndarray, dy: np.ndarray, ws: Workspace,
        grads: Sequence[np.ndarray], need_dx: bool = True,
    ) -> np.ndarray | None:
        """``dx`` of the last :meth:`forward_array` at input ``x``, with the
        parameter gradients written into ``grads`` (``parameters()`` order)."""
        for i in range(len(self.layers) - 1, -1, -1):
            below = self.layers[i - 1] if i else None
            inputs = x if below is None else ws(below, below.out_features)
            dx = self.layers[i].backward_array(
                weights[2 * i: 2 * i + 2], inputs, dy, ws, grads[2 * i: 2 * i + 2],
                need_dx=below is not None or need_dx,
            )
            if below is not None:  # through the ReLU: its output (our input) > 0
                mask = np.greater(inputs, 0, out=ws((below, "mask"), below.out_features, dtype=np.bool_))
                dy = np.multiply(dx, mask, out=dx)
        return dx
