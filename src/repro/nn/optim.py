"""Optimizers for dense parameters and for sparse (row-indexed) updates.

Dense optimizers operate on autograd :class:`Parameter` objects after
``backward()``.  The embedding-compression layers manage their own storage
outside the autograd graph (they must intercept per-lookup gradients to feed
HotSketch), so this module also provides *row optimizers* that apply SGD or
Adagrad updates to selected rows of a raw NumPy matrix — the same split
between a "dense" and a "sparse" optimizer that production DLRM trainers use.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NonFiniteGradientError, OptimizerStateMismatchError
from repro.kernels.ops import scatter_apply
from repro.nn.tensor import Parameter


#: Decaying dense-optimizer state is flushed on every 16th step.  A first
#: moment at the threshold ``sqrt(tiny)`` (2^-63 in float32) that then decays
#: by 0.25 or more per step is still above 2^-95 at the next flush, so neither
#: it nor ``lr * m`` (for lr >= 2^-31) is ever subnormal in between; a second
#: moment may spend those 16 steps below ``tiny`` on its way to 0.
FLUSH_EVERY = 16


class Optimizer:
    """Base class for dense optimizers over autograd parameters.

    All state lives in flat arrays over the concatenation of the parameters
    (list order), next to one gradient staging buffer and two work buffers
    of the same length.  Every gradient reaches its slice of the staging
    buffer — copied from ``param.grad`` by :meth:`step`, or written there by
    the caller through :attr:`staging` before :meth:`step_staged`, as
    ``Trainer`` does — then the update arithmetic runs once over the flat
    range and each slice of the update is subtracted from its ``param.data``,
    which is never aliased (rebinding it or deep-copying the model is safe).
    A parameter whose ``grad`` is ``None`` is left untouched with its state:
    the arithmetic runs over the maximal runs of parameters that have
    gradients — one run in every real training step.

    **Flush contract** (docs/architecture.md, "Subnormals").  State that
    decays multiplicatively is set to exactly 0 once it is too small to move
    a parameter; otherwise the entries of units whose gradient is exactly 0
    decay into the subnormal range, stay there, and slow every ufunc that
    touches them ~40x.  First moments flush below ``sqrt(tiny)``, second
    moments (squares) below ``tiny``, on every :data:`FLUSH_EVERY`-th step.
    """

    #: Name written to (and required of) checkpoints; set by subclasses.
    kind = ""

    def __init__(self, parameters: list[Parameter], lr: float, state: tuple[str, ...] = ()):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = float(lr)
        # State and work arrays are allocated in this one dtype and every
        # update is in place with Python-scalar coefficients, so a step can
        # neither widen a float32 parameter nor round a float64 one.
        dtypes = {p.data.dtype for p in self.parameters}
        if len(dtypes) > 1 or any(dtype.kind != "f" for dtype in dtypes):
            raise TypeError(
                f"dense parameters must share one float dtype, got {sorted(map(str, dtypes))}"
            )
        self.dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        bounds = np.cumsum([0] + [p.size for p in self.parameters]).tolist()
        self.state = {name: np.zeros(bounds[-1], dtype=self.dtype) for name in state}
        self._grad, self._update, self._denom = np.empty((3, bounds[-1]), dtype=self.dtype)
        # (parameter, start, stop, its view of the staging buffer, of the update)
        self._slots = [
            (p, lo, hi, self._grad[lo:hi].reshape(p.shape), self._update[lo:hi].reshape(p.shape))
            for p, lo, hi in zip(self.parameters, bounds, bounds[1:])
        ]
        self._all = [slice(0, bounds[-1])]
        #: One view of the staging buffer per parameter, in its shape, for a
        #: caller that writes the gradients itself (:meth:`step_staged`).
        self.staging = [slot[3] for slot in self._slots]
        self.step_count = 0
        #: Whether the state came from :meth:`load_state_dict` (a checkpoint).
        self.restored = False
        self._tiny = float(np.finfo(self.dtype).tiny)
        self._tiny_root = float(np.sqrt(np.finfo(self.dtype).tiny))

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        """One update from every ``param.grad`` (a parameter whose grad is
        ``None`` is skipped): staged, then the update :meth:`step_staged`
        runs."""
        runs: list[slice] = []
        stepped = []
        for slot in self._slots:
            param, lo, hi, staged, _ = slot
            if param.grad is None:
                continue
            np.copyto(staged, param.grad)
            stepped.append(slot)
            if runs and runs[-1].stop == lo:
                runs[-1] = slice(runs[-1].start, hi)
            else:
                runs.append(slice(lo, hi))
        self._apply(runs, stepped)

    def step_staged(self) -> None:
        """One update of every parameter from the gradients the caller wrote
        into :attr:`staging` (``Trainer``'s step; no ``param.grad`` is read)."""
        self._apply(self._all, self._slots)

    def _apply(self, runs: list[slice], stepped: list[tuple]) -> None:
        """Check the staged gradients over ``runs``, advance the state and
        subtract the update from the parameters of the ``stepped`` slots."""
        for run in runs:
            grad = self._grad[run]
            if not np.isfinite(np.dot(grad, grad)):
                raise NonFiniteGradientError(
                    "dense gradients contain NaN or inf (or overflow when squared); the "
                    "step is refused and no parameter or optimizer state was touched"
                )
        self.step_count += 1
        for run in runs:
            self._compute_update(run)
        for param, _, _, _, update in stepped:
            param.data -= update

    def _compute_update(self, run: slice) -> None:  # pragma: no cover - abstract
        """Advance the state over ``run`` and leave its update in ``_update``."""
        raise NotImplementedError

    def _flush(self, state: np.ndarray, below: float, scratch: np.ndarray) -> None:
        """Zero the entries of ``state`` smaller in magnitude than ``below``."""
        if self.step_count % FLUSH_EVERY:
            return
        np.abs(state, out=scratch)
        np.greater_equal(scratch, below, out=scratch)
        state *= scratch

    def reset_state(self) -> None:
        """Back to the state of a newly constructed optimizer."""
        self.step_count = 0
        self.restored = False
        for array in self.state.values():
            array[:] = 0.0

    def state_dict(self) -> dict[str, np.ndarray]:
        """The flat state arrays by name, the step count and the optimizer kind."""
        return {
            "kind": np.asarray(self.kind),
            "step_count": np.asarray(self.step_count),
            **{name: array.copy() for name, array in self.state.items()},
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict`; refuses another kind, array set or size."""
        arrays = {
            name: np.asarray(value)
            for name, value in state.items()
            if name not in ("kind", "step_count")
        }
        found = (str(state.get("kind")), {name: a.shape for name, a in arrays.items()})
        expected = (self.kind, {name: a.shape for name, a in self.state.items()})
        if found != expected:
            raise OptimizerStateMismatchError(
                f"optimizer state {found} does not fit this optimizer, which holds {expected}"
            )
        self.step_count = int(state["step_count"])
        self.restored = True
        for name, array in self.state.items():
            array[:] = arrays[name]


class SGD(Optimizer):
    """Plain stochastic gradient descent (optionally with momentum)."""

    kind = "sgd"

    def __init__(self, parameters: list[Parameter], lr: float, momentum: float = 0.0):
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        super().__init__(parameters, lr, state=("velocity",) if momentum > 0.0 else ())
        self.momentum = float(momentum)

    def _compute_update(self, run: slice) -> None:
        direction, update = self._grad[run], self._update[run]
        if self.momentum > 0.0:
            velocity = self.state["velocity"][run]
            velocity *= self.momentum
            velocity += direction
            self._flush(velocity, self._tiny_root, update)
            direction = velocity
        np.multiply(direction, self.lr, out=update)


class Adagrad(Optimizer):
    """Adagrad, the optimizer the reference DLRM uses for embeddings."""

    kind = "adagrad"

    def __init__(self, parameters: list[Parameter], lr: float, eps: float = 1e-10):
        super().__init__(parameters, lr, state=("accumulator",))
        self.eps = float(eps)

    def _compute_update(self, run: slice) -> None:
        grad, update, denom = self._grad[run], self._update[run], self._denom[run]
        acc = self.state["accumulator"][run]
        # The accumulator only grows: nothing decays, nothing to flush.
        np.square(grad, out=update)
        acc += update
        np.sqrt(acc, out=denom)
        denom += self.eps
        np.multiply(grad, self.lr, out=update)
        update /= denom


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    kind = "adam"

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        super().__init__(parameters, lr, state=("m", "v"))
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)

    def _compute_update(self, run: slice) -> None:
        grad, update, denom = self._grad[run], self._update[run], self._denom[run]
        m, v = self.state["m"][run], self.state["v"][run]
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
        # Same operations in the same order as the textbook expression
        # lr * (m / bias1) / (sqrt(v / bias2) + eps), written into the
        # two work arrays.
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=update)
        m += update
        self._flush(m, self._tiny_root, update)
        v *= self.beta2
        np.square(grad, out=update)
        update *= 1.0 - self.beta2
        v += update
        self._flush(v, self._tiny, update)
        np.divide(m, bias1, out=update)
        update *= self.lr
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom


# --------------------------------------------------------------------------- #
# Row-wise (sparse) optimizers for embedding storages
# --------------------------------------------------------------------------- #
class RowOptimizer:
    """Applies updates to selected rows of a raw parameter matrix.

    The numeric inner loops — segment sum over duplicate rows, then the
    optimizer scatter — are the primitives of :mod:`repro.kernels.ops`.
    """

    #: Name in :data:`ROW_OPTIMIZERS`; set by subclasses.
    kind = ""
    #: Keys of :meth:`state_dict` (checkpointed as ``optimizer.<key>``).
    state_keys: tuple[str, ...] = ()

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def update(self, table: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> None:
        """Apply the update ``table[rows] -= f(grads)`` in place.

        ``rows`` may contain duplicates; gradients for duplicate rows are
        summed before the update (scatter-add semantics, batch order within
        each row).  This entry point builds the scatter from scratch.
        Callers that already hold a
        :class:`~repro.embeddings.plan.ScatterPlan` should segment-sum and
        call :meth:`fused_apply` directly instead.
        """
        from repro.embeddings.plan import ScatterPlan

        scatter = ScatterPlan.from_rows(np.asarray(rows, dtype=np.int64))
        summed = scatter.sum(grads)
        self.fused_apply(table, scatter.rows, summed)

    def fused_apply(self, table: np.ndarray, rows: np.ndarray, summed: np.ndarray) -> None:
        """Apply pre-summed per-row gradients to unique ``rows`` in place.

        The caller has already collapsed duplicate rows with
        :meth:`~repro.embeddings.plan.ScatterPlan.sum`, so the only work left is one
        optimizer scatter (plus per-row state, updated in the same pass).
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def reset_rows(self, rows: np.ndarray) -> None:
        """Clear any per-row state (used when an embedding row is recycled)."""

    def state_buffers(self, table: np.ndarray) -> dict[str, np.ndarray]:
        """The live per-row state arrays for ``table``, by name.

        :class:`~repro.embeddings.cafe.CafeStack` stacks these across shards
        and rebinds each shard's optimizer to its slice.  Stateless
        optimizers return ``{}``; stateful ones materialize their state for
        ``table`` first so the returned arrays are the live ones.
        """
        return {}

    def adopt_state_buffers(self, buffers: dict[str, np.ndarray]) -> None:
        """Re-point per-row state at caller-owned arrays (same keys and
        shapes as :meth:`state_buffers`)."""
        if buffers:  # pragma: no cover - defensive: stateless base has no state
            raise NotImplementedError(
                f"{type(self).__name__} has no state buffers to adopt: {sorted(buffers)}"
            )

    def memory_floats(self) -> int:
        """Per-row state scalars currently held (0 for stateless optimizers)."""
        return 0

    def state_dict(self) -> dict[str, np.ndarray]:
        """Per-row state arrays for checkpointing (``{}`` when stateless or
        not yet materialized)."""
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict` arrays.  Copies in place when the live
        arrays match in shape (they may be views into a stack)."""
        if state:  # pragma: no cover - defensive: stateless base has no state
            raise NotImplementedError(
                f"{type(self).__name__} has no optimizer state to load: {sorted(state)}"
            )


class RowSGD(RowOptimizer):
    """Sparse SGD over embedding rows."""

    kind = "sgd"

    def fused_apply(self, table: np.ndarray, rows: np.ndarray, summed: np.ndarray) -> None:
        scatter_apply(table, rows, summed, self.lr)


class RowAdagrad(RowOptimizer):
    """Sparse Adagrad over embedding rows (row-wise accumulator).

    The accumulator is lazily sized to the table the first time ``update`` is
    called, and tracks one scalar per row (row-wise Adagrad), which is the
    standard memory-frugal variant used for huge embedding tables.
    """

    kind = "adagrad"
    state_keys = ("accumulator",)

    def __init__(self, lr: float, eps: float = 1e-10):
        super().__init__(lr)
        self.eps = float(eps)
        self._accumulator: np.ndarray | None = None

    def _ensure_state(self, table: np.ndarray) -> None:
        # The accumulator matches the table dtype so a float32 table keeps
        # its whole optimizer state in single precision too.
        if self._accumulator is None or self._accumulator.shape[0] != table.shape[0]:
            self._accumulator = np.zeros(table.shape[0], dtype=table.dtype)

    def fused_apply(self, table: np.ndarray, rows: np.ndarray, summed: np.ndarray) -> None:
        self._ensure_state(table)
        scatter_apply(
            table, rows, summed, self.lr, accumulator=self._accumulator, eps=self.eps
        )

    def reset_rows(self, rows: np.ndarray) -> None:
        if self._accumulator is not None:
            self._accumulator[np.asarray(rows, dtype=np.int64)] = 0.0

    def state_buffers(self, table: np.ndarray) -> dict[str, np.ndarray]:
        self._ensure_state(table)
        assert self._accumulator is not None
        return {"accumulator": self._accumulator}

    def adopt_state_buffers(self, buffers: dict[str, np.ndarray]) -> None:
        self._accumulator = buffers["accumulator"]

    def memory_floats(self) -> int:
        return 0 if self._accumulator is None else int(self._accumulator.shape[0])

    def state_dict(self) -> dict[str, np.ndarray]:
        if self._accumulator is None:
            return {}
        return {"accumulator": self._accumulator.copy()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "accumulator" not in state:
            # Saved without row-optimizer state (an sgd or pre-state
            # checkpoint): restart cold, in place (may be a stack view).
            if self._accumulator is not None:
                self._accumulator[:] = 0.0
            return
        incoming = np.asarray(state["accumulator"])
        if self._accumulator is not None and self._accumulator.shape == incoming.shape:
            self._accumulator[:] = incoming  # in place: may be a stack view
        else:
            self._accumulator = incoming.copy()


#: Row optimizers by the name ``store.optimizer`` and the backends take.
ROW_OPTIMIZERS: dict[str, type[RowOptimizer]] = {cls.kind: cls for cls in (RowSGD, RowAdagrad)}

#: The ``optimizer.*`` state of the retired count-min ``sketched_adagrad``
#: (accumulator sketch plus exact heavy-hitter lane).  No row optimizer
#: takes it, so a checkpoint carrying it is refused rather than run cold.
RETIRED_SKETCHED_STATE = frozenset({"sketch_counters", "heavy_keys", "heavy_vals"})


def make_row_optimizer(name: str, lr: float) -> RowOptimizer:
    """The row optimizer called ``name`` (``"sgd"`` or ``"adagrad"``)."""
    optimizer = ROW_OPTIMIZERS.get(name)
    if optimizer is None:
        raise ValueError(
            f"unknown row optimizer '{name}'; expected one of {sorted(ROW_OPTIMIZERS)}"
        )
    return optimizer(lr)


def check_row_state(optimizer: RowOptimizer | None, keys: set[str]) -> None:
    """Raise :class:`~repro.errors.OptimizerStateMismatchError` unless
    ``optimizer`` takes the checkpointed row-optimizer state ``keys`` (a
    backend's ``optimizer.<key>`` entries); no keys always fit (cold start)."""
    takes = set(getattr(optimizer, "state_keys", ()))
    if not keys <= takes:
        retired = " of the retired 'sketched_adagrad'" if keys == RETIRED_SKETCHED_STATE else ""
        raise OptimizerStateMismatchError(
            f"checkpoint holds row-optimizer state {sorted(keys)}{retired}; this store's "
            f"row optimizer '{getattr(optimizer, 'kind', None)}' takes {sorted(takes)}"
        )
