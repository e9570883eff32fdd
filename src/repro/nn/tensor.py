"""A small reverse-mode automatic differentiation engine over NumPy arrays.

The CAFE paper builds on PyTorch; PyTorch is not available in this offline
environment, so this module provides the minimal-but-real substrate the rest
of the library needs: a ``Tensor`` holding a ``numpy.ndarray``, a dynamic
computation graph, and reverse-mode gradients for the operations used by the
DLRM / WDL / DCN models (matrix multiplication, element-wise arithmetic,
activations, reductions, concatenation, gathering rows from embedding
matrices, and the binary cross entropy loss).

The engine intentionally mirrors PyTorch's mental model (``requires_grad``,
``backward()``, ``grad``, ``no_grad()``) so that the embedding-compression
code reads like the original plug-in module the paper describes.

Precision: a tensor keeps the float dtype of the array it wraps, and every
operation computes in the dtype of its operands, so a graph built from
float32 embeddings and float32 parameters is float32 end to end — data,
every ``.grad`` and the optimizer state (float16 is widened to float32 on
entry: there are no half-precision GEMMs here).  Values that carry no float
dtype of their own (Python numbers, lists, integer arrays) take the default
dtype — float64, which is what a bare ``Linear``/``MLP`` built outside a
session uses and what keeps the gradient-check tests tight — or, inside a
binary operation, the dtype of the other operand.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

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


def _as_array(value: ArrayLike, dtype: np.dtype | None = None) -> np.ndarray:
    """``value`` as a float array of at least single precision.

    Float arrays (and NumPy float scalars, which reductions return) keep
    their dtype, float16 widening to float32; anything else is converted to
    ``dtype`` (default: the module default).
    """
    if isinstance(value, np.floating):
        value = np.asarray(value)
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        if value.dtype.itemsize >= _FLOAT32.itemsize:
            return value
        return value.astype(_FLOAT32)
    return np.asarray(value, dtype=dtype or _DEFAULT_DTYPE)


# Whether operations record the backward graph.  Per thread: a serving thread
# inside ``no_grad()`` must not strip the graph of a training thread.
_grad_mode = threading.local()


def is_grad_enabled() -> bool:
    return getattr(_grad_mode, "enabled", True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Run the enclosed forward passes without recording a backward graph."""
    previous = is_grad_enabled()
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor participating in a dynamic autograd graph."""

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

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------ #
    # Autograd machinery
    # ------------------------------------------------------------------ #
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
            raise ValueError(f"gradient shape {seed.shape} does not match tensor shape {self.data.shape}")

        order = _topological_order(self)
        self._accumulate_grad(seed, owned)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # ------------------------------------------------------------------ #
    # Operator overloads (thin wrappers over repro.nn.functional)
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Tensor | ArrayLike") -> "Tensor":
        from repro.nn import functional as F

        return F.add(self, other)

    __radd__ = __add__

    def __sub__(self, other: "Tensor | ArrayLike") -> "Tensor":
        from repro.nn import functional as F

        return F.sub(self, other)

    def __rsub__(self, other: "Tensor | ArrayLike") -> "Tensor":
        from repro.nn import functional as F

        return F.sub(other, self)

    def __mul__(self, other: "Tensor | ArrayLike") -> "Tensor":
        from repro.nn import functional as F

        return F.mul(self, other)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        from repro.nn import functional as F

        return F.mul(self, -1.0)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from repro.nn import functional as F

        return F.matmul(self, other)

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        from repro.nn import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        from repro.nn import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        from repro.nn import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def relu(self) -> "Tensor":
        from repro.nn import functional as F

        return F.relu(self)

    def sigmoid(self) -> "Tensor":
        from repro.nn import functional as F

        return F.sigmoid(self)


def ensure_tensor(value: "Tensor | ArrayLike", dtype: np.dtype | None = None) -> Tensor:
    """Coerce ``value`` into a non-differentiable :class:`Tensor` if needed.

    ``dtype`` is what a value without a float dtype of its own becomes.
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(_as_array(value, dtype))


def ensure_tensors(a: "Tensor | ArrayLike", b: "Tensor | ArrayLike") -> tuple[Tensor, Tensor]:
    """Both operands of a binary operation as tensors.

    A Python number (or any dtype-less value) adopts the dtype of the tensor
    it meets: as a 0-d float64 *array* it would promote a float32 operand.
    """
    if isinstance(a, Tensor):
        return a, ensure_tensor(b, a.data.dtype)
    b = ensure_tensor(b)
    return ensure_tensor(a, b.data.dtype), b


def make_node(
    data: np.ndarray, parents: tuple[Tensor, ...], backward_fn: Callable[[np.ndarray], None]
) -> Tensor:
    """``data`` as the output of an operation on ``parents``.

    Records ``backward_fn`` (called with the node's gradient once every
    consumer has contributed to it) when gradients are enabled and some
    parent requires one; otherwise returns a plain tensor with no graph.
    """
    if is_grad_enabled():
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
