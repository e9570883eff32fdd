"""Common interface for (compressed) embedding layers.

The models in :mod:`repro.models` treat the embedding layer as an opaque
component with two operations:

* :meth:`CompressedEmbedding.lookup` maps a batch of global feature ids of
  shape ``(batch, fields)`` to embedding vectors ``(batch, fields, dim)``;
* :meth:`CompressedEmbedding.apply_gradients` receives the gradient of the
  loss with respect to those looked-up vectors (same shape) and performs the
  sparse parameter update.

Both are one generic wrapper here.  It collapses the batch onto its sorted
unique ids (:class:`~repro.embeddings.plan.UniqueBatch`), routes them once
(:meth:`CompressedEmbedding.plan_for` caches a backend's ``routes``) and
calls the two hooks every backend implements — ``gather`` and ``apply`` —
so a backend (and a sharded store's stack) only sees the unique-id axis.

Keeping the embedding storage out of the dense network mirrors how large
DLRM systems separate the "sparse" and "dense" optimizers, and it is exactly
the hook CAFE needs: the per-lookup gradient norms are the importance scores
fed into HotSketch (paper §3.1).
"""

from __future__ import annotations

import numpy as np

from repro.data.stream import as_id_array
from repro.embeddings.plan import (
    PlanStats,
    RoutingPlan,
    ScatterPlan,
    UniqueBatch,
    gradient_norms,
)
from repro.errors import NonFiniteGradientError
from repro.nn.module import Restorable, check_fits, section
from repro.nn.optim import RowOptimizer, make_row_optimizer

#: Table storage dtype used unless a layer opts out.  The paper's memory
#: accounting is in float32-equivalent slots, so float32 storage makes the
#: real memory footprint match the reported one; ``float64`` remains an
#: opt-in for precision-sensitive repro runs.
DEFAULT_DTYPE = np.float32


class CompressedEmbedding(Restorable):
    """Abstract base class for all embedding schemes in this library."""

    #: Importance scores handed to :meth:`apply_unique` count lookups instead
    #: of summing gradient norms (CAFE's frequency ablation).
    use_frequency = False
    #: What a refused checkpoint says its state is not.
    _state_owner = "this embedding layer"
    #: The attributes that check their own section of the state (their
    #: ``check_state``), by key prefix.
    _state_parts: dict[str, str] = {}

    def __init__(self, num_features: int, dim: int, dtype: np.dtype | str = DEFAULT_DTYPE):
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.num_features = int(num_features)
        self.dim = int(dim)
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError(f"dtype must be a float type, got {self.dtype}")
        self._step = 0
        self._cached_batch: UniqueBatch | None = None
        self._cached_plan: RoutingPlan | None = None
        self._routing_version = 0
        self.plan_stats = PlanStats()

    # ------------------------------------------------------------------ #
    # Position-axis wrapper (the only code that sees duplicate ids)
    # ------------------------------------------------------------------ #
    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Return embeddings for a batch of global feature ids.

        ``ids`` may have any shape; every value must be an integer in
        ``[0, num_features)`` (named :mod:`repro.errors` otherwise).  The
        output has shape ``ids.shape + (dim,)`` and dtype :attr:`dtype`.
        Looking up the same id twice in one batch returns the same vector
        twice.  ``lookup`` never mutates parameters, but it *does* build and
        cache the batch's unique ids and routing plan, so a training step
        should call ``lookup`` before ``apply_gradients`` to get the sort and
        the hash/locate pass for free on the update half.
        """
        return self._unique_batch(ids).broadcast(self.lookup_unique, self.dim, self.dtype)

    def apply_gradients(self, ids: np.ndarray, grads: np.ndarray) -> None:
        """Apply per-lookup gradients; the layer's only mutating operation.

        ``grads`` must have shape ``ids.shape + (dim,)`` — the gradient of
        the loss with respect to each vector the preceding :meth:`lookup`
        returned.  Duplicate ids accumulate: the updates are linear in the
        per-position gradient given the id, so gradients (and the per-lookup
        gradient norms adaptive schemes use as importance) are summed per id
        here and :meth:`apply_unique` sees each id once.  An empty batch is
        a no-op that does not advance :meth:`step`; a NaN/inf gradient raises
        :class:`~repro.errors.NonFiniteGradientError` before anything is
        mutated.
        """
        batch = self._unique_batch(ids)
        grads = np.asarray(grads)
        if grads.dtype != self.dtype:
            grads = grads.astype(self.dtype)
        if grads.shape != batch.ids_shape + (self.dim,):
            raise ValueError(
                f"gradient shape {grads.shape} is not the lookup's {batch.ids_shape + (self.dim,)}"
            )
        if not len(batch):
            return
        flat_grads = grads.reshape(len(batch), self.dim)
        scores = batch.sum_per_id(gradient_norms(flat_grads))
        if not np.isfinite(scores).all():
            raise NonFiniteGradientError(
                "gradients contain NaN or inf; the batch was refused and no row, "
                "optimizer state or sketch score was touched"
            )
        if self.use_frequency:
            scores = batch.counts().astype(np.float64)
        self.apply_unique(batch.uids, batch.sum_per_id(flat_grads), scores)

    def _unique_batch(self, ids: np.ndarray) -> UniqueBatch:
        """The batch's :class:`UniqueBatch`; ``apply_gradients`` reuses ``lookup``'s."""
        ids = as_id_array(ids)
        cached = self._cached_batch
        if cached is None or not cached.matches(ids):
            cached = self._cached_batch = UniqueBatch.build(ids, self.num_features)
        return cached

    # ------------------------------------------------------------------ #
    # Unique-id axis: route once, then gather / apply through the plan
    # ------------------------------------------------------------------ #
    def lookup_unique(self, uids: np.ndarray) -> np.ndarray:
        """Rows ``(U, dim)`` for sorted, distinct, in-range int64 ``uids``:
        :meth:`gather` through the (cached) routing plan."""
        return self.gather(uids, self.plan_for(uids).routes)

    def apply_unique(self, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray) -> None:
        """:meth:`apply` with the routing plan :meth:`lookup_unique` built."""
        self.apply(self.plan_for(uids), uids, grad_sums, scores)

    def routes(self, uids: np.ndarray) -> dict[str, np.ndarray]:
        """Backend-specific routing arrays for sorted unique ids: a pure read
        of the backend's state, which :meth:`plan_for` caches."""
        return {}

    def gather(self, uids: np.ndarray, routes: dict[str, np.ndarray]) -> np.ndarray:
        """Rows ``(U, dim)`` of sorted, distinct, in-range int64 ``uids``
        routed by ``routes``; reads only, so a frozen table can serve it."""
        raise NotImplementedError  # pragma: no cover - abstract

    def apply(
        self, plan: RoutingPlan, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray
    ) -> None:
        """Apply one summed gradient row per sorted, distinct id.

        ``plan`` is the routing of ``uids`` (``plan.routes``, the lookup's);
        ``grad_sums`` is ``(U, dim)`` in :attr:`dtype`; ``scores`` is the
        ``(U,)`` float64 importance of each id in this batch (summed
        per-lookup gradient norms, or lookup counts under
        :attr:`use_frequency`).  Advances :meth:`step` by one.  Adaptive
        schemes fold ``scores`` into their importance statistics here
        (CAFE's HotSketch insert), so the call can move features between
        representations as a side effect.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def state_dict(self) -> dict[str, np.ndarray]:
        """The full sparse state (tables, row optimizer, sketch) for checkpoints:
        copies of :meth:`_state_view`'s arrays, then each part's ``state_dict()``.

        A scheme without checkpointable state raises ``NotImplementedError``;
        a checkpoint then omits its sparse section.
        """
        state = {key: value.copy() for key, value in self._state_view().items()}
        state.update(self._parts_state_dict())
        return state

    def _state_view(self) -> dict[str, np.ndarray]:
        """The scheme's own entries of :meth:`state_dict` (no parts') as the
        live arrays, not copies; ``NotImplementedError`` when it has none."""
        raise NotImplementedError(f"{type(self).__name__} does not support state_dict")

    def check_state(self, state: dict[str, np.ndarray]) -> None:
        """Raise a named error unless ``state`` fits :meth:`state_dict`
        (:func:`~repro.nn.module.check_fits`, which runs each part's
        ``check_state`` on its section; ``NotImplementedError`` when the
        scheme has no state).  Writes nothing and copies nothing: the shapes
        are read off :meth:`_state_view`, or off ``state_dict()`` for a scheme
        without a view (one of your own that defines ``state_dict`` alone)."""
        owner = self._state_owner
        own_state = (
            self.state_dict if type(self)._state_view is CompressedEmbedding._state_view
            else self._state_view
        )
        check_fits(
            state, own_state(),
            f"checkpoint holds {{found}}, not {owner}'s; {owner} takes {{takes}}",
            parts={prefix: getattr(self, name) for prefix, name in self._state_parts.items()},
        )

    def write_state(self, state: dict[str, np.ndarray]) -> None:
        """Write a state :meth:`check_state` passed, checking nothing: the
        scheme's own entries, then each part's section.  A scheme of your
        own that overrides :meth:`load_state_dict` alone is written by it."""
        if type(self).load_state_dict is not Restorable.load_state_dict:
            self.load_state_dict(state)
            return
        self._write_state(state)
        for prefix, name in self._state_parts.items():
            getattr(self, name).write_state(section(state, prefix))
        self.invalidate_plan()

    def _write_state(self, state: dict[str, np.ndarray]) -> None:
        """Write the scheme's own entries of a state that fits (no parts)."""
        raise NotImplementedError(f"{type(self).__name__} cannot load a state dict")

    def _parts_state_dict(self) -> dict[str, np.ndarray]:
        """Each part's ``state_dict()``, its keys under the part's prefix
        (a row optimizer's too, so a restore resumes the per-row rates)."""
        return {
            prefix + key: value
            for prefix, name in self._state_parts.items()
            for key, value in getattr(self, name).state_dict().items()
        }

    def memory_floats(self) -> int:
        """Total memory footprint in float32-equivalent parameters.

        Includes every auxiliary structure (hash index tables, importance
        arrays, sketches) per the paper's fairness rule in §5.1.4.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    # ------------------------------------------------------------------ #
    # Routing plans
    # ------------------------------------------------------------------ #
    def _routing_token(self) -> object:
        """Identity of the routing-relevant state a cached plan depends on.

        Backends whose routing changes as they train (sketch insertions,
        row migration) bump :attr:`_routing_version` on every such mutation;
        backends with richer invalidation needs can override this.
        """
        return self._routing_version

    def invalidate_plan(self) -> None:
        """Force the next :meth:`plan_for` call to rebuild the routing."""
        self._routing_version += 1
        self._cached_plan = None

    def plan_for(self, uids: np.ndarray) -> RoutingPlan:
        """Return the routing plan for sorted unique ``uids``, reusing the
        cached one.

        ``lookup_unique`` builds the plan, ``apply_unique`` receives the
        same unique ids an instant later and gets a cache hit, so the hash +
        locate pass (:meth:`routes`) runs once per training step.
        """
        token = self._routing_token()
        cached = self._cached_plan
        if cached is not None and cached.matches(uids, token):
            self.plan_stats.hits += 1
            return cached
        self.plan_stats.misses += 1
        plan = self._cached_plan = RoutingPlan(uids.copy(), self.routes(uids), token)
        return plan

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def step(self) -> int:
        """Number of gradient applications performed so far."""
        return self._step

    def compression_ratio(self) -> float:
        """Achieved compression ratio versus an uncompressed table."""
        return (self.num_features * self.dim) / max(self.memory_floats(), 1)

    def describe(self) -> dict[str, float | int | str]:
        """Human-readable summary used by experiment reports."""
        return {
            "method": type(self).__name__,
            "num_features": self.num_features,
            "dim": self.dim,
            "dtype": str(self.dtype),
            "memory_floats": self.memory_floats(),
            "compression_ratio": round(self.compression_ratio(), 2),
        }


class TableBackedEmbedding(CompressedEmbedding):
    """Convenience base for schemes storing one or more dense row tables.

    Table-backed schemes apply gradients through one path: a segment sum
    over the routing plan's scatter, then one row-optimizer scatter (the
    primitives of :mod:`repro.kernels.ops`), with the row optimizer held as
    ``self._optimizer``.
    """

    def __init__(
        self,
        num_features: int,
        dim: int,
        optimizer: str = "sgd",
        learning_rate: float = 0.05,
        dtype: np.dtype | str = DEFAULT_DTYPE,
    ):
        super().__init__(num_features, dim, dtype=dtype)
        self.optimizer_name = optimizer
        self.learning_rate = float(learning_rate)

    def _new_row_optimizer(self, table: np.ndarray) -> RowOptimizer:
        """The layer's row optimizer for ``table``, the one table it updates."""
        return make_row_optimizer(self.optimizer_name, self.learning_rate, table)

    def fused_apply(self, table: np.ndarray, scatter, grad_sums: np.ndarray) -> None:
        """One segment-sum + ``self._optimizer`` scatter into ``table``.

        ``scatter`` is a :class:`~repro.embeddings.plan.ScatterPlan` whose
        ``rows`` index ``table``; ``grad_sums`` is the ``(U, dim)`` per-id
        gradient matrix the scatter's ``perm`` refers to.
        """
        summed = scatter.sum(grad_sums)
        self._optimizer.fused_apply(table, scatter.rows, summed)


def update_rows(
    optimizer: RowOptimizer, table: np.ndarray, rows: np.ndarray, grads: np.ndarray
) -> None:
    """Apply ``table[rows] -= f(grads)`` in place through ``optimizer``.

    ``rows`` may contain duplicates; gradients for duplicate rows are summed
    before the update (scatter-add semantics, batch order within each row).
    The scatter is built from ``rows`` here; a backend whose routing plan
    already holds one calls :meth:`TableBackedEmbedding.fused_apply` instead.
    """
    scatter = ScatterPlan.from_rows(np.asarray(rows, dtype=np.int64))
    optimizer.fused_apply(table, scatter.rows, scatter.sum(grads))
