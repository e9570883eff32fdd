"""Common interface for (compressed) embedding layers.

The models in :mod:`repro.models` treat the embedding layer as an opaque
component with two operations:

* :meth:`CompressedEmbedding.lookup` maps a batch of global feature ids of
  shape ``(batch, fields)`` to embedding vectors ``(batch, fields, dim)``;
* :meth:`CompressedEmbedding.apply_gradients` receives the gradient of the
  loss with respect to those looked-up vectors (same shape) and performs the
  sparse parameter update.

Both are one generic wrapper here.  It collapses the batch onto its sorted
unique ids (:class:`~repro.embeddings.plan.UniqueBatch`) and calls the two
hooks every backend implements — :meth:`CompressedEmbedding.lookup_unique`
and :meth:`CompressedEmbedding.apply_unique` — so a backend (and every shard
of a sharded store) only ever sees the unique-id axis.

Keeping the embedding storage out of the dense network mirrors how large
DLRM systems separate the "sparse" and "dense" optimizers, and it is exactly
the hook CAFE needs: the per-lookup gradient norms are the importance scores
fed into HotSketch (paper §3.1).
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.plan import (
    PlanStats,
    RoutingPlan,
    UniqueBatch,
    as_id_array,
    gradient_norms,
)
from repro.errors import NonFiniteGradientError
from repro.nn.optim import RowOptimizer, make_row_optimizer

#: Table storage dtype used unless a layer opts out.  The paper's memory
#: accounting is in float32-equivalent slots, so float32 storage makes the
#: real memory footprint match the reported one; ``float64`` remains an
#: opt-in for precision-sensitive repro runs.
DEFAULT_DTYPE = np.float32


class CompressedEmbedding:
    """Abstract base class for all embedding schemes in this library."""

    #: Importance scores handed to :meth:`apply_unique` count lookups instead
    #: of summing gradient norms (CAFE's frequency ablation).
    use_frequency = False

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
        batch = self._unique_batch(ids)
        if not len(batch):
            return np.empty(batch.ids_shape + (self.dim,), dtype=self.dtype)
        rows = self.lookup_unique(batch.uids)
        return np.take(rows, batch.inverse, axis=0).reshape(batch.ids_shape + (self.dim,))

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
                f"gradient shape {grads.shape} does not match {batch.ids_shape + (self.dim,)}"
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
    # Required interface (unique-id axis)
    # ------------------------------------------------------------------ #
    def lookup_unique(self, uids: np.ndarray) -> np.ndarray:
        """Rows ``(U, dim)`` for sorted, distinct, in-range int64 ``uids``."""
        raise NotImplementedError  # pragma: no cover - abstract

    def apply_unique(self, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray) -> None:
        """Apply one summed gradient row per sorted, distinct id.

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
        """The full sparse state (tables, row optimizer, sketch) for checkpoints.

        A scheme without checkpointable state raises ``NotImplementedError``;
        a checkpoint then omits its sparse section.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support state_dict")

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore what :meth:`state_dict` returned (``NotImplementedError``
        when the scheme has none)."""
        raise NotImplementedError(f"{type(self).__name__} cannot load a state dict")

    def merged_sketch(self):
        """The hot-feature sketch, merged across members for a composite
        store.  A scheme that tracks no sketch raises
        ``NotImplementedError``."""
        raise NotImplementedError(f"{type(self).__name__} tracks no hot-feature sketch")

    def memory_floats(self) -> int:
        """Total memory footprint in float32-equivalent parameters.

        Includes every auxiliary structure (hash index tables, importance
        arrays, sketches) per the paper's fairness rule in §5.1.4.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    # ------------------------------------------------------------------ #
    # Routing plans
    # ------------------------------------------------------------------ #
    def _build_routes(self, uids: np.ndarray) -> dict[str, np.ndarray]:
        """Backend-specific routing arrays for a batch's sorted unique ids.

        Subclasses that participate in plan caching override this with the
        hashing/locating work that would otherwise run twice per step.
        """
        return {}

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

    def plan_for(self, ids: np.ndarray) -> RoutingPlan:
        """Return the routing plan for ``ids``, reusing the cached one.

        ``lookup_unique`` builds the plan, ``apply_unique`` receives the
        same unique ids an instant later and gets a cache hit, so the hash +
        locate pass runs once per training step.
        """
        token = self._routing_token()
        cached = self._cached_plan
        if cached is not None and cached.matches(ids, token):
            self.plan_stats.hits += 1
            return cached
        self.plan_stats.misses += 1
        flat_ids = ids.reshape(-1)
        plan = RoutingPlan(
            flat_ids=flat_ids.copy(),
            ids_shape=ids.shape,
            routes=self._build_routes(flat_ids),
            token=token,
        )
        self._cached_plan = plan
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

    def _new_row_optimizer(self) -> RowOptimizer:
        return make_row_optimizer(self.optimizer_name, self.learning_rate)

    def fused_apply(self, table: np.ndarray, scatter, grad_sums: np.ndarray) -> None:
        """One segment-sum + ``self._optimizer`` scatter into ``table``.

        ``scatter`` is a :class:`~repro.embeddings.plan.ScatterPlan` whose
        ``rows`` index ``table``; ``grad_sums`` is the ``(U, dim)`` per-id
        gradient matrix the scatter's ``perm`` refers to.
        """
        summed = scatter.sum(grad_sums)
        self._optimizer.fused_apply(table, scatter.rows, summed)

    # ------------------------------------------------------------------ #
    # Optimizer state in checkpoints
    # ------------------------------------------------------------------ #
    def optimizer_memory_floats(self) -> int:
        """State scalars the row optimizer currently holds (0 if stateless)."""
        optimizer = getattr(self, "_optimizer", None)
        return 0 if optimizer is None else int(optimizer.memory_floats())

    def _optimizer_state_entries(self) -> dict[str, np.ndarray]:
        """Row-optimizer state under ``optimizer.``-prefixed keys.

        Backends merge these into their ``state_dict`` so restoring a
        checkpoint resumes with the same effective per-row learning rates.
        """
        optimizer = getattr(self, "_optimizer", None)
        if optimizer is None:
            return {}
        return {
            f"optimizer.{key}": array for key, array in optimizer.state_dict().items()
        }

    def _load_optimizer_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore the ``optimizer.``-prefixed entries of ``state``.

        Tolerates their absence so checkpoints written by an ``sgd`` store
        or before optimizer state was serialized keep loading: the
        optimizer restarts cold.
        """
        optimizer = getattr(self, "_optimizer", None)
        if optimizer is None:
            return
        optimizer.load_state_dict(
            {
                key.split(".", 1)[1]: array
                for key, array in state.items()
                if key.startswith("optimizer.")
            }
        )
