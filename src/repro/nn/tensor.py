"""Parameters, and the one graph node a dense pass can still be wrapped in.

A :class:`Parameter` is a named array a model learns (``Module`` walks
them; the dense optimizer updates their ``data``).  ``Trainer`` trains with
no graph: it runs the models' array forward and backward directly.  What is
left of reverse-mode autograd here is what the graph form of that pass
needs: a :class:`Tensor` holding an array and, after :meth:`Tensor.backward`,
its ``grad``; :func:`make_node`, which records one operation's backward; and
the ``Parameter`` leaves it fills.  ``RecommendationModel.forward_dense`` is
one such node and ``binary_cross_entropy_with_logits`` another, so a loss
built from them back-propagates into the embedding leaf and every
``param.grad``.  The per-op graph the dense passes are checked against lives
in the tests, beside ``tests/reference_dense.py``.

Precision: a tensor keeps the float dtype of the array it wraps (float16 is
widened to float32 on entry: there are no half-precision GEMMs here).
Values that carry no float dtype of their own (Python numbers, lists,
integer arrays) take the default dtype, float64, which is also what a bare
``Linear`` / ``MLP`` built outside a session uses.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

ArrayLike = np.ndarray | float | int | list | tuple

# dtype of values that bring none of their own, and of layers built without
# an explicit dtype.  Models decide theirs from the embedding store
# (``np.promote_types(store.dtype, float32)``) and never consult this.
_DEFAULT_DTYPE = np.dtype(np.float64)
_FLOAT32 = np.dtype(np.float32)


def get_default_dtype() -> np.dtype:
    """The float dtype given to dtype-less values and bare layers."""
    return _DEFAULT_DTYPE


def _as_array(value: ArrayLike) -> np.ndarray:
    """``value`` as a float array of at least single precision.

    Float arrays (and NumPy float scalars, which reductions return) keep
    their dtype, float16 widening to float32; anything else is converted to
    the default dtype.
    """
    if isinstance(value, np.floating):
        value = np.asarray(value)
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        if value.dtype.itemsize >= _FLOAT32.itemsize:
            return value
        return value.astype(_FLOAT32)
    return np.asarray(value, dtype=_DEFAULT_DTYPE)


class Tensor:
    """An array in a dynamic autograd graph: ``data``, and ``grad`` after
    :meth:`backward`."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward_fn = backward_fn
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def _accumulate_grad(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned=True`` is the producer's promise that ``grad`` is a freshly
        allocated array nobody else references (not a view, not handed to a
        second tensor), so the first contribution is adopted instead of
        copied.
        """
        if self.grad is None:
            self.grad = grad if owned else grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: ArrayLike | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones, which is the usual convention for scalar
        losses; for non-scalar tensors an explicit upstream gradient of the
        same shape must be provided.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            seed, owned = np.ones_like(self.data), True
        else:
            # The caller keeps its array; the seed takes this tensor's dtype
            # so a float64 upstream cannot promote a float32 graph.
            seed, owned = np.asarray(grad, dtype=self.data.dtype), False
        if seed.shape != self.data.shape:
            raise ValueError(f"gradient shape {seed.shape} is not the tensor's {self.data.shape}")

        order = _topological_order(self)
        self._accumulate_grad(seed, owned)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)


def make_node(
    data: np.ndarray, parents: tuple[Tensor, ...], backward_fn: Callable[[np.ndarray], None]
) -> Tensor:
    """``data`` as the output of an operation on ``parents``.

    Records ``backward_fn`` (called with the node's gradient once every
    consumer has contributed to it) when some parent requires a gradient;
    otherwise returns a plain tensor with no graph.
    """
    parents = tuple([p for p in parents if p.requires_grad])
    if parents:
        return Tensor(data, True, parents, backward_fn)
    return Tensor(data)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Return tensors reachable from ``root`` in topological order."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


class Parameter(Tensor):
    """A tensor that is a learnable model parameter (always requires grad)."""

    __slots__ = ()

    def __init__(self, data: ArrayLike, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)
