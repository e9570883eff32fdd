"""Optimizers for dense parameters and for sparse (row-indexed) updates.

The dense network's :class:`Parameter` objects are trained by :class:`Adam`,
from gradients ``Trainer``'s backward writes into its staging buffer.  The
embedding-compression layers manage their own storage (they must intercept
per-lookup gradients to feed HotSketch), so this module also provides *row
optimizers* that apply SGD or Adagrad updates to selected rows of a raw
NumPy matrix — the same split between a "dense" and a "sparse" optimizer
that production DLRM trainers use.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NonFiniteGradientError, OptimizerStateMismatchError
from repro.kernels.ops import scatter_apply
from repro.nn.module import Restorable, check_fits
from repro.nn.tensor import Parameter


#: Decaying dense-optimizer state is flushed on every 16th step.  A first
#: moment at the threshold ``sqrt(tiny)`` (2^-63 in float32) that then decays
#: by 0.25 or more per step is still above 2^-95 at the next flush, so neither
#: it nor ``lr * m`` (for lr >= 2^-31) is ever subnormal in between; a second
#: moment may spend those 16 steps below ``tiny`` on its way to 0.
FLUSH_EVERY = 16


class Optimizer(Restorable):
    """Base class of the dense optimizer (:class:`Adam`) over parameters.

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
        return {key: value.copy() for key, value in self._state_view().items()}

    def _state_view(self) -> dict[str, np.ndarray]:
        """:meth:`state_dict`'s entries as the live arrays, not copies."""
        return {
            "kind": np.asarray(self.kind),
            "step_count": np.asarray(self.step_count),
            **self.state,
        }

    def check_state(self, state: dict[str, np.ndarray]) -> None:
        """Raise :class:`~repro.errors.OptimizerStateMismatchError` unless
        ``state`` is this kind's and fits (:func:`~repro.nn.module.check_fits`,
        on the live arrays' shapes)."""
        if str(state.get("kind")) != self.kind:
            raise OptimizerStateMismatchError(
                f"checkpoint holds '{state.get('kind')}' optimizer state; this optimizer is "
                f"'{self.kind}'"
            )
        check_fits(
            state, self._state_view(),
            f"checkpoint holds optimizer state {{found}}; this '{self.kind}' optimizer takes "
            "{takes}",
            OptimizerStateMismatchError,
        )

    def write_state(self, state: dict[str, np.ndarray]) -> None:
        """Write a state :meth:`check_state` passed, checking nothing."""
        self.step_count = int(state["step_count"])
        self.restored = True
        for name, array in self.state.items():
            array[:] = state[name]


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015), the dense network's optimizer."""

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
class RowOptimizer(Restorable):
    """Applies updates to selected rows of a raw parameter matrix.

    The per-row state is :attr:`state`: one zeroed ``(rows,)`` array per
    name in :attr:`state_keys`, in the dtype of the one table the optimizer
    updates (so a float32 table keeps its whole optimizer state in single
    precision too), built with the optimizer.  The optimizer keeps no
    reference to that table — each step hands it over, and a backend may
    rebind its table on restore — and writes its state only in place, so
    the arrays may be views into a :class:`~repro.embeddings.cafe.CafeStack`.

    The numeric inner loops — segment sum over duplicate rows, then the
    optimizer scatter — are the primitives of :mod:`repro.kernels.ops`.
    """

    #: Name in :data:`ROW_OPTIMIZERS`; set by subclasses.
    kind = ""
    #: Keys of :attr:`state` (checkpointed as ``optimizer.<key>``).
    state_keys: tuple[str, ...] = ()

    def __init__(self, lr: float, table: np.ndarray):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.state = {key: np.zeros(table.shape[0], dtype=table.dtype) for key in self.state_keys}

    def fused_apply(self, table: np.ndarray, rows: np.ndarray, summed: np.ndarray) -> None:
        """Apply pre-summed per-row gradients to unique ``rows`` in place.

        The caller has already collapsed duplicate rows with
        :meth:`~repro.embeddings.plan.ScatterPlan.sum`, so the only work left is one
        optimizer scatter (plus per-row state, updated in the same pass);
        :func:`~repro.embeddings.base.update_rows` does both halves.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def reset_rows(self, rows: np.ndarray) -> None:
        """Clear the per-row state of ``rows`` (an embedding row is recycled)."""
        for array in self.state.values():
            array[rows] = 0.0

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of the per-row state arrays, for checkpointing."""
        return {key: array.copy() for key, array in self.state.items()}

    def check_state(self, state: dict[str, np.ndarray]) -> None:
        """Raise :class:`~repro.errors.OptimizerStateMismatchError` unless
        every entry of ``state`` is one of :attr:`state`, by key and shape
        (:func:`~repro.nn.module.check_fits`); a key without an entry fits
        and restarts cold.  Writes nothing."""
        retired = RETIRED_SKETCHED_STATE <= state.keys()
        note = " of the retired 'sketched_adagrad'" if retired else ""
        check_fits(
            state, self.state,
            f"checkpoint holds row-optimizer state {{found}}{note}; row optimizer "
            f"'{self.kind}' takes {{takes}}",
            OptimizerStateMismatchError, optional=self.state_keys,
        )

    def write_state(self, state: dict[str, np.ndarray]) -> None:
        """Write a state :meth:`check_state` passed in place, checking
        nothing; a key without an entry restarts cold (zeroed)."""
        for key, array in self.state.items():
            array[...] = state.get(key, 0.0)


class RowSGD(RowOptimizer):
    """Sparse SGD over embedding rows."""

    kind = "sgd"

    def fused_apply(self, table: np.ndarray, rows: np.ndarray, summed: np.ndarray) -> None:
        scatter_apply(table, rows, summed, self.lr)


class RowAdagrad(RowOptimizer):
    """Sparse Adagrad over embedding rows with a row-wise accumulator: one
    scalar per row, the standard memory-frugal variant for huge embedding
    tables."""

    kind = "adagrad"
    state_keys = ("accumulator",)

    def __init__(self, lr: float, table: np.ndarray, eps: float = 1e-10):
        super().__init__(lr, table)
        self.eps = float(eps)

    def fused_apply(self, table: np.ndarray, rows: np.ndarray, summed: np.ndarray) -> None:
        scatter_apply(
            table, rows, summed, self.lr, accumulator=self.state["accumulator"], eps=self.eps
        )


#: Row optimizers by the name ``store.optimizer`` and the backends take.
ROW_OPTIMIZERS: dict[str, type[RowOptimizer]] = {cls.kind: cls for cls in (RowSGD, RowAdagrad)}

#: The ``optimizer.*`` state of the retired count-min ``sketched_adagrad``
#: (accumulator sketch plus exact heavy-hitter lane).  No row optimizer
#: takes it, so a checkpoint carrying it is refused rather than run cold.
RETIRED_SKETCHED_STATE = frozenset({"sketch_counters", "heavy_keys", "heavy_vals"})


def make_row_optimizer(name: str, lr: float, table: np.ndarray) -> RowOptimizer:
    """The row optimizer called ``name`` (``"sgd"`` or ``"adagrad"``), its
    state sized to ``table``, the one table it updates."""
    optimizer = ROW_OPTIMIZERS.get(name)
    if optimizer is None:
        raise ValueError(
            f"unknown row optimizer '{name}'; expected one of {sorted(ROW_OPTIMIZERS)}"
        )
    return optimizer(lr, table)

