"""Optimizers for dense parameters and for sparse (row-indexed) updates.

Dense optimizers operate on autograd :class:`Parameter` objects after
``backward()``.  The embedding-compression layers manage their own storage
outside the autograd graph (they must intercept per-lookup gradients to feed
HotSketch), so this module also provides *row optimizers* that apply SGD or
Adagrad updates to selected rows of a raw NumPy matrix — the same split
between a "dense" and a "sparse" optimizer that production DLRM trainers use.
"""

from __future__ import annotations

import re

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

    def fused_apply(self, table: np.ndarray, rows: np.ndarray, summed: np.ndarray) -> None:
        scatter_apply(table, rows, summed, self.lr)


class RowAdagrad(RowOptimizer):
    """Sparse Adagrad over embedding rows (row-wise accumulator).

    The accumulator is lazily sized to the table the first time ``update`` is
    called, and tracks one scalar per row (row-wise Adagrad), which is the
    standard memory-frugal variant used for huge embedding tables.
    """

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
            return  # old checkpoints carry no optimizer state
        incoming = np.asarray(state["accumulator"])
        if self._accumulator is not None and self._accumulator.shape == incoming.shape:
            self._accumulator[:] = incoming  # in place: may be a stack view
        else:
            self._accumulator = incoming.copy()


class SketchedRowAdagrad(RowOptimizer):
    """Row-wise Adagrad whose accumulator lives in a count-min sketch.

    Exact row-wise Adagrad keeps one accumulator scalar per table row —
    state that scales 1:1 with the table and defeats part of the compression
    win.  This variant bounds the state to ``frac × num_rows`` scalars total
    (``frac=0.25`` by default), split between:

    * a **count-min sketch** of the accumulated squared-gradient mass,
      keyed by row index (``depth`` rows of ``width`` counters, SplitMix64
      positions — the idiom of :class:`repro.sketch.CountMinSketch`).  The
      min-over-depth estimate is a *monotone overestimate*, so hash
      collisions can only shrink the effective learning rate of a colliding
      row — updates degrade gracefully, they never blow up; and
    * an **exact lane** for sketch-identified heavy hitters: a direct-mapped
      cache (hashed slot, stored key) holding the exact accumulator for the
      rows with the largest accumulated mass.  A newcomer evicts a resident
      only when its sketched mass exceeds the resident's exact value; the
      evictee falls back to its sketch estimate, which has kept accumulating
      the whole time (every update is always folded into the sketch).

    Both structures are fixed-size numpy arrays and serialize through
    :meth:`state_dict` for checkpoints.
    """

    def __init__(
        self,
        lr: float,
        eps: float = 1e-10,
        frac: float = 0.25,
        depth: int = 3,
        heavy_frac: float = 0.25,
        seed: int = 0,
    ):
        super().__init__(lr)
        if not 0.0 < frac <= 1.0:
            raise ValueError(f"frac must be in (0, 1], got {frac}")
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        if not 0.0 <= heavy_frac < 1.0:
            raise ValueError(f"heavy_frac must be in [0, 1), got {heavy_frac}")
        self.eps = float(eps)
        self.frac = float(frac)
        self.depth = int(depth)
        self.heavy_frac = float(heavy_frac)
        self.seed = int(seed)
        self._counters: np.ndarray | None = None  # (depth, width) CM sketch
        self._heavy_keys: np.ndarray | None = None  # (capacity,) int64, -1 = empty
        self._heavy_vals: np.ndarray | None = None  # (capacity,) exact accumulators
        self._width = 0
        self._capacity = 0
        self._sized_rows = -1  # -1: unsized or externally sized (loaded)

    # ------------------------------------------------------------------ #
    # Sizing
    # ------------------------------------------------------------------ #
    def _ensure_state(self, table: np.ndarray) -> None:
        num_rows = int(table.shape[0])
        if self._counters is not None and (
            self._sized_rows == num_rows or self._sized_rows == -1
        ):
            return
        # Budget: frac × num_rows state scalars, split between the exact
        # lane (key + value = 2 scalars per slot) and the CM counters.
        budget = max(self.depth + 2, int(round(self.frac * num_rows)))
        capacity = max(1, int(self.heavy_frac * budget / 2)) if self.heavy_frac else 0
        width = max(1, (budget - 2 * capacity) // self.depth)
        self._width = width
        self._capacity = capacity
        self._counters = np.zeros((self.depth, width), dtype=table.dtype)
        self._heavy_keys = np.full(max(capacity, 1), -1, dtype=np.int64)
        self._heavy_vals = np.zeros(max(capacity, 1), dtype=table.dtype)
        self._sized_rows = num_rows

    def _positions(self, rows: np.ndarray) -> np.ndarray:
        from repro.utils.hashing import hash_to_range

        return np.stack(
            [hash_to_range(rows, self._width, seed=self.seed + r) for r in range(self.depth)],
            axis=0,
        )

    def _estimate(self, rows: np.ndarray) -> np.ndarray:
        """Count-min (min over depth) accumulator estimate for ``rows``."""
        assert self._counters is not None
        positions = self._positions(rows)
        stacked = np.stack(
            [self._counters[r, positions[r]] for r in range(self.depth)], axis=0
        )
        return stacked.min(axis=0)

    # ------------------------------------------------------------------ #
    # The fused update
    # ------------------------------------------------------------------ #
    def fused_apply(self, table: np.ndarray, rows: np.ndarray, summed: np.ndarray) -> None:
        from repro.utils.hashing import hash_to_range

        self._ensure_state(table)
        assert self._counters is not None
        assert self._heavy_keys is not None and self._heavy_vals is not None
        if rows.shape[0] == 0:
            return
        rows = np.asarray(rows, dtype=np.int64)
        g2 = (summed**2).mean(axis=1)

        # Prior accumulator: exact for lane residents, sketched otherwise.
        estimate = self._estimate(rows)
        if self._capacity:
            slots = hash_to_range(rows, self._capacity, seed=self.seed + 777)
            hits = self._heavy_keys[slots] == rows
            prior = np.where(hits, self._heavy_vals[slots], estimate)
        else:
            slots = np.zeros(rows.shape[0], dtype=np.int64)
            hits = np.zeros(rows.shape[0], dtype=bool)
            prior = estimate
        new_acc = prior + g2

        # Every update folds into the sketch, including lane residents', so
        # an evicted row falls back to an estimate that never stopped
        # accumulating.
        positions = self._positions(rows)
        for r in range(self.depth):
            np.add.at(self._counters[r], positions[r], g2)

        if self._capacity:
            self._heavy_vals[slots[hits]] = new_acc[hits]
            misses = ~hits
            if misses.any():
                # One admission candidate per slot (largest mass, ties to the
                # earlier row — deterministic).
                cand = np.flatnonzero(misses)
                order = np.lexsort((cand, -new_acc[cand]))
                cand = cand[order]
                keep = np.unique(slots[cand], return_index=True)[1]
                cand = cand[keep]
                resident = self._heavy_keys[slots[cand]]
                admit = (resident < 0) | (new_acc[cand] > self._heavy_vals[slots[cand]])
                winners = cand[admit]
                self._heavy_keys[slots[winners]] = rows[winners]
                self._heavy_vals[slots[winners]] = new_acc[winners]

        scale = (self.lr / (np.sqrt(new_acc) + self.eps)).astype(summed.dtype)
        # Rows are unique, so the pre-scaled scatter runs through the same
        # primitive the exact optimizers use (lr folded into scale).
        scatter_apply(table, rows, scale[:, None] * summed, 1.0)

    def reset_rows(self, rows: np.ndarray) -> None:
        """Evict recycled rows from the exact lane.

        The sketch is additive and cannot forget a single key; a recycled
        row index inherits residual sketch mass (a smaller initial learning
        rate) until decay-by-dilution washes it out — the documented
        approximation of this optimizer.
        """
        if self._heavy_keys is None or not self._capacity:
            return
        from repro.utils.hashing import hash_to_range

        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if rows.size == 0:
            return
        slots = hash_to_range(rows, self._capacity, seed=self.seed + 777)
        evict = self._heavy_keys[slots] == rows
        self._heavy_keys[slots[evict]] = -1
        self._heavy_vals[slots[evict]] = 0.0

    # ------------------------------------------------------------------ #
    # Checkpoint / accounting
    # ------------------------------------------------------------------ #
    def memory_floats(self) -> int:
        """State scalars held: CM counters plus 2 per exact-lane slot."""
        if self._counters is None:
            return 0
        return int(self._counters.size + 2 * self._capacity)

    def state_dict(self) -> dict[str, np.ndarray]:
        if self._counters is None:
            return {}
        assert self._heavy_keys is not None and self._heavy_vals is not None
        return {
            "sketch_counters": self._counters.copy(),
            "heavy_keys": self._heavy_keys.copy(),
            "heavy_vals": self._heavy_vals.copy(),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "sketch_counters" not in state:
            return  # old checkpoints carry no optimizer state
        for name, attr in (
            ("sketch_counters", "_counters"),
            ("heavy_keys", "_heavy_keys"),
            ("heavy_vals", "_heavy_vals"),
        ):
            incoming = np.asarray(state[name])
            live = getattr(self, attr)
            if live is not None and live.shape == incoming.shape:
                live[:] = incoming  # in place, keeping the live dtype
            else:
                setattr(self, attr, incoming.copy())
        assert self._counters is not None and self._heavy_keys is not None
        self._width = int(self._counters.shape[1])
        self._capacity = int(self._heavy_keys.shape[0]) if self.heavy_frac else 0
        self._sized_rows = -1  # externally sized: trust the restored arrays


_OPTIMIZER_SPEC = re.compile(r"^(?P<name>[a-z_]+)(?:\[(?P<options>[^\]]*)\])?$")

#: Option grammar per optimizer name: option -> (parser, validator hint).
_SKETCHED_OPTIONS = ("frac", "depth", "heavy_frac", "seed")


def parse_row_optimizer_spec(spec: str) -> tuple[str, dict[str, float]]:
    """Split ``"name[key=value,...]"`` into ``(name, options)``.

    The grammar mirrors the store spec strings (``"hash[cr=8]"``): a bare
    name, or a name followed by comma-separated ``key=value`` options in
    brackets.  Raises :class:`ValueError` for malformed specs; option *names*
    are validated by :func:`make_row_optimizer` per optimizer.
    """
    match = _OPTIMIZER_SPEC.match(spec.strip().lower())
    if match is None:
        raise ValueError(
            f"malformed row-optimizer spec '{spec}' (expected \"name\" or "
            f"\"name[key=value,...]\", e.g. \"sketched_adagrad[frac=0.25]\")"
        )
    options: dict[str, float] = {}
    raw = match.group("options")
    if raw:
        for item in raw.split(","):
            if "=" not in item:
                raise ValueError(
                    f"malformed option '{item}' in row-optimizer spec '{spec}'"
                )
            key, value = item.split("=", 1)
            try:
                options[key.strip()] = float(value)
            except ValueError as exc:
                raise ValueError(
                    f"non-numeric value for option '{key.strip()}' in "
                    f"row-optimizer spec '{spec}'"
                ) from exc
    return match.group("name"), options


def make_row_optimizer(name: str, lr: float) -> RowOptimizer:
    """Factory used by configuration code.

    Accepts ``"sgd"``, ``"adagrad"``, and ``"sketched_adagrad"`` — the last
    with optional bracket options, e.g. ``"sketched_adagrad[frac=0.25]"``
    (also ``depth``, ``heavy_frac``, ``seed``).
    """
    base, options = parse_row_optimizer_spec(name)
    if base == "sgd":
        if options:
            raise ValueError(f"'sgd' takes no options, got {sorted(options)}")
        return RowSGD(lr)
    if base == "adagrad":
        if options:
            raise ValueError(f"'adagrad' takes no options, got {sorted(options)}")
        return RowAdagrad(lr)
    if base == "sketched_adagrad":
        unknown = sorted(set(options) - set(_SKETCHED_OPTIONS))
        if unknown:
            raise ValueError(
                f"unknown sketched_adagrad option(s) {unknown}; "
                f"expected {list(_SKETCHED_OPTIONS)}"
            )
        return SketchedRowAdagrad(
            lr,
            frac=options.get("frac", 0.25),
            depth=int(options.get("depth", 3)),
            heavy_frac=options.get("heavy_frac", 0.25),
            seed=int(options.get("seed", 0)),
        )
    raise ValueError(
        f"unknown row optimizer '{name}' "
        "(expected 'sgd', 'adagrad' or 'sketched_adagrad[frac=...]')"
    )
