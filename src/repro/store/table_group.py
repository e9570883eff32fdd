"""Per-field table groups: heterogeneous backends behind one fused store.

The sharded store scales one policy horizontally; a
:class:`TableGroupStore` makes the policy itself *per field*.  Every
categorical field carries a :class:`~repro.data.schema.FieldConfig`
(backend, native dimension, memory budget, hash policy, intra-group shard
count); fields with equal configs pool into one **table group** that owns a
single embedding backend over the concatenated id space of its member
fields.  A three-field dataset might run

* field ``country`` (cardinality 50) in a ``full`` group — uncompressed,
  exact, 50 rows are cheaper than any sketch;
* field ``ad_id`` (cardinality 10M, Zipf-skewed) in a ``cafe`` group at
  100x compression;
* field ``device`` (cardinality 5k) in a ``hash`` group at 8x.

The store presents the ordinary :class:`~repro.store.base.EmbeddingStore`
surface: models hand it the ``(batch, fields)`` global-id matrix and get a
fused ``(batch, fields, dim)`` tensor back.  Internally a **fused lookup
planner** splits the matrix into per-group sub-lookups exactly once per
training step: the split (group columns, global→group-local id remap) is
cached in the PR-1 :class:`~repro.embeddings.plan.RoutingPlan`, so
``apply_gradients`` reuses it, and each group backend receives the identical
sub-batch object in both halves of the step — its own intra-group plan
cache hits too.  Groups whose native dimension is narrower than the fused
output dimension are projected up with a trainable matrix (the MDE idiom),
and the projection is back-propagated through on the gradient scatter.

Groups compose with the rest of the store stack:

* a group backend may itself be a :class:`~repro.store.sharded.
  ShardedEmbeddingStore` (``num_shards`` in the field config), sharding
  *within* the group;
* :meth:`TableGroupStore.snapshot` returns a group-wise copy-on-write
  :class:`TableGroupSnapshot` — O(1), with training's first write to a
  group swapping in a private copy — so the serving engine and the online
  pipeline publish mixed-policy snapshots exactly like uniform ones;
* checkpoints are group-namespaced (``group{i}.backend.*``) and a
  single-group store migrates pre-refactor flat state dicts.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.analysis.sanitizer import freeze_arrays, single_writer
from repro.api import registry as capability_registry
from repro.data.schema import DatasetSchema, FieldConfig, field_configs_from_spec
from repro.embeddings.base import DEFAULT_DTYPE, CompressedEmbedding
from repro.embeddings.plan import as_id_array, check_id_range
from repro.errors import NonFiniteGradientError
from repro.nn.init import xavier_uniform
from repro.runtime.executor import SerialShardExecutor
from repro.store.base import EmbeddingStore
from repro.utils.rng import make_rng


class TableGroup:
    """One field group: a backend plus the columns and id remap it owns."""

    def __init__(
        self,
        name: str,
        backend: CompressedEmbedding,
        field_indices: np.ndarray,
        global_shift: np.ndarray,
        projection: np.ndarray | None = None,
        projection_lr: float = 0.005,
        config: FieldConfig | None = None,
    ):
        self.name = str(name)
        self.backend = backend
        #: Columns of the ``(batch, fields)`` id matrix this group owns.
        self.field_indices = np.asarray(field_indices, dtype=np.int64)
        #: Per owned column: ``global_id - global_shift = group-local id``.
        self.global_shift = np.asarray(global_shift, dtype=np.int64)
        if self.field_indices.shape != self.global_shift.shape:
            raise ValueError("field_indices and global_shift must align")
        if self.field_indices.size == 0:
            raise ValueError(f"table group '{self.name}' owns no fields")
        self.projection = projection
        self.projection_lr = float(projection_lr)
        #: The config the group was built from (prototype of its members).
        self.config = config

    @property
    def dim(self) -> int:
        """Native row width of the group's tables."""
        return self.backend.dim

    @property
    def num_fields(self) -> int:
        return int(self.field_indices.size)

    def local_ids(self, ids: np.ndarray) -> np.ndarray:
        """Slice the group's columns out of ``(batch, fields)`` and remap to
        the group-local id space."""
        return ids[:, self.field_indices] - self.global_shift[None, :]

    def lookup_fused(self, local: np.ndarray) -> np.ndarray:
        """Backend lookup projected up to the fused output dimension."""
        vectors = self.backend.lookup(local)
        if self.projection is not None:
            vectors = vectors @ self.projection
        return vectors

    def apply_fused(self, local: np.ndarray, grad_slice: np.ndarray) -> None:
        """Scatter fused-dim gradients into the backend (and projection).

        Groups with a projection back-propagate through it: the narrow
        table receives ``grad @ P^T`` and the projection trains on the
        outer product with the pre-update rows (the MDE rule).
        """
        if self.projection is None:
            self.backend.apply_gradients(local, grad_slice)
            return
        # Pre-update rows (plan-cache hit: lookup built this batch's plan).
        vectors = self.backend.lookup(local)
        flat_rows = vectors.reshape(-1, self.dim)
        flat_grads = grad_slice.reshape(-1, grad_slice.shape[-1])
        grad_rows = flat_grads @ self.projection.T
        grad_projection = flat_rows.T @ flat_grads
        self.backend.apply_gradients(local, grad_rows.reshape(vectors.shape))
        self.projection -= self.projection_lr * grad_projection

    def memory_floats(self) -> int:
        """Backend footprint plus the projection matrix, if any."""
        total = self.backend.memory_floats()
        if self.projection is not None:
            total += self.projection.size
        return int(total)

    def describe(self) -> dict:
        """Per-group summary row.

        Reports the same core keys as every backend/store ``describe()``
        (``dtype``, ``memory_floats``, ``compression_ratio``, …) so
        aggregators like :meth:`repro.api.session.Session.describe` can rely
        on one schema across heterogeneous groups.
        """
        native_params = self.backend.num_features * self.dim
        info = {
            "name": self.name,
            "backend": type(self.backend).__name__,
            "num_fields": self.num_fields,
            "num_features": self.backend.num_features,
            "dim": self.dim,
            "dtype": str(self.backend.dtype),
            "memory_floats": self.memory_floats(),
            "compression_ratio": round(native_params / max(self.memory_floats(), 1), 2),
        }
        shards = capability_registry.shard_count(self.backend)
        if shards is not None:
            info["num_shards"] = shards
        return info


class TableGroupSnapshot:
    """Immutable fused lookup view over frozen table groups.

    Holds the group backends that were live at snapshot time (the store
    copy-on-writes them before any later mutation) plus private copies of
    the small projection matrices, so readers keep seeing exactly the
    snapshot-time parameters while training continues.
    """

    __slots__ = (
        "_groups",
        "dim",
        "num_fields",
        "num_features",
        "dtype",
        "version",
        "step",
    )

    def __init__(
        self,
        groups: Sequence[tuple[CompressedEmbedding, np.ndarray, np.ndarray, np.ndarray | None]],
        dim: int,
        num_fields: int,
        num_features: int,
        dtype: np.dtype,
        version: int = 0,
        step: int = 0,
    ):
        #: ``(backend, field_indices, global_shift, projection-or-None)``.
        self._groups = tuple(groups)
        self.dim = int(dim)
        self.num_fields = int(num_fields)
        self.num_features = int(num_features)
        self.dtype = np.dtype(dtype)
        self.version = int(version)
        self.step = int(step)

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Fused embeddings ``(batch, fields, dim)`` at the frozen values."""
        ids = as_id_array(ids)
        if ids.ndim != 2 or ids.shape[1] != self.num_fields:
            raise ValueError(
                f"expected ids of shape (batch, {self.num_fields}), got {ids.shape}"
            )
        out = np.empty(ids.shape + (self.dim,), dtype=self.dtype)
        if ids.shape[0] == 0:
            return out
        for backend, field_indices, global_shift, projection in self._groups:
            local = ids[:, field_indices] - global_shift[None, :]
            vectors = backend.lookup(local)
            if projection is not None:
                vectors = vectors @ projection
            out[:, field_indices, :] = vectors
        return out

    def memory_floats(self) -> int:
        total = 0
        for backend, _, _, projection in self._groups:
            total += backend.memory_floats()
            if projection is not None:
                total += projection.size
        return int(total)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TableGroupSnapshot(version={self.version}, step={self.step}, "
            f"num_groups={self.num_groups}, dim={self.dim})"
        )


class TableGroupStore(CompressedEmbedding, EmbeddingStore):
    """Heterogeneous per-field table groups behind one fused store."""

    def __init__(
        self,
        groups: Sequence[TableGroup],
        num_fields: int,
        num_features: int,
        dim: int,
    ):
        groups = list(groups)
        if not groups:
            raise ValueError("TableGroupStore requires at least one group")
        dtype = groups[0].backend.dtype
        super().__init__(num_features, dim, dtype=dtype)
        self.num_fields = int(num_fields)
        owned = np.concatenate([group.field_indices for group in groups])
        if not np.array_equal(np.sort(owned), np.arange(self.num_fields)):
            raise ValueError(
                "groups must partition the field columns exactly once; got "
                f"{sorted(owned.tolist())} for {self.num_fields} fields"
            )
        for group in groups:
            if group.backend.dtype != dtype:
                raise ValueError(
                    f"group '{group.name}' dtype {group.backend.dtype} does not match "
                    f"store dtype {dtype}"
                )
            if group.dim > dim:
                raise ValueError(
                    f"group '{group.name}' dim {group.dim} exceeds the fused dim {dim}"
                )
            if group.dim != dim and group.projection is None:
                raise ValueError(
                    f"group '{group.name}' has native dim {group.dim} != {dim} but no "
                    "projection matrix"
                )
        self._groups = groups
        self.num_groups = len(groups)
        self.executor = SerialShardExecutor()
        self._cow_pending = [False] * self.num_groups
        self.snapshots_taken = 0
        self.cow_copies = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_schema(
        cls,
        schema: DatasetSchema,
        spec: str | None = None,
        compression_ratio: float = 1.0,
        optimizer: str = "sgd",
        learning_rate: float = 0.05,
        dtype: np.dtype | str = DEFAULT_DTYPE,
        seed: int = 0,
        **spec_kwargs,
    ) -> "TableGroupStore":
        """Build groups for ``schema`` from a spec string or attached configs.

        Resolution order: an explicit ``spec`` (see :func:`~repro.data.
        schema.field_configs_from_spec`; ``spec_kwargs`` forwards e.g.
        ``tiny_max`` / ``tail_min``), else ``schema.field_configs``, else the
        uniform single-group default ``"cafe:all"`` at ``compression_ratio``.
        Each group backend is built by :func:`repro.embeddings.
        create_embedding` over the group's concatenated id space, wrapped in
        a :class:`~repro.store.sharded.ShardedEmbeddingStore` when its config
        asks for intra-group shards.
        """
        if spec is not None:
            configs = field_configs_from_spec(
                schema, spec, compression_ratio=compression_ratio, **spec_kwargs
            )
        elif schema.field_configs is not None:
            configs = schema.field_configs
        else:
            configs = field_configs_from_spec(
                schema, "cafe:all", compression_ratio=compression_ratio
            )
        return cls.from_configs(
            schema,
            configs,
            optimizer=optimizer,
            learning_rate=learning_rate,
            dtype=dtype,
            seed=seed,
        )

    @classmethod
    def from_configs(
        cls,
        schema: DatasetSchema,
        configs: Sequence[FieldConfig],
        optimizer: str = "sgd",
        learning_rate: float = 0.05,
        dtype: np.dtype | str = DEFAULT_DTYPE,
        seed: int = 0,
    ) -> "TableGroupStore":
        """Build one backend per distinct config and assemble the store."""
        from repro.embeddings import create_embedding
        from repro.store.sharded import ShardedEmbeddingStore

        configs = list(configs)
        if len(configs) != schema.num_fields:
            raise ValueError(
                f"need one FieldConfig per field ({schema.num_fields}), got {len(configs)}"
            )
        cardinalities = schema.field_cardinalities
        global_offsets = schema.field_offsets

        # Group fields by policy, preserving first-appearance order.
        grouped: dict[tuple, list[int]] = {}
        for index, config in enumerate(configs):
            grouped.setdefault(config.group_key(), []).append(index)

        groups = []
        for group_index, (key, member_indices) in enumerate(grouped.items()):
            prototype = configs[member_indices[0]]
            member_cards = [cardinalities[i] for i in member_indices]
            local_offsets = np.concatenate([[0], np.cumsum(member_cards)]).astype(np.int64)
            group_features = int(local_offsets[-1])
            group_dim = prototype.dim or schema.embedding_dim
            if prototype.memory_floats is not None:
                target = sum(
                    configs[i].memory_floats or 0 for i in member_indices
                )
                group_ratio = (group_features * group_dim) / max(target, 1)
            else:
                group_ratio = prototype.compression_ratio
            registered = capability_registry.get_backend(prototype.backend)
            extra: dict = {}
            if prototype.hash_seed is not None:
                if "seed" not in registered.spec_options:
                    raise ValueError(
                        f"backend '{prototype.backend}' does not route by hash and "
                        "takes no [seed=N] spec option (group "
                        f"'{prototype.field}')"
                    )
                extra["hash_seed"] = prototype.hash_seed
            # Any backend declaring the side input in the registry gets the
            # group's member cardinalities (MDE built-in or third-party).
            if "field_cardinalities" in registered.requires:
                extra["field_cardinalities"] = member_cards
            rng = np.random.default_rng(seed + 104729 * group_index)
            if prototype.num_shards > 1:
                backend: CompressedEmbedding = ShardedEmbeddingStore.build(
                    prototype.backend,
                    num_features=group_features,
                    dim=group_dim,
                    num_shards=prototype.num_shards,
                    compression_ratio=group_ratio,
                    seed=seed + 104729 * group_index,
                    optimizer=optimizer,
                    learning_rate=learning_rate,
                    dtype=dtype,
                    **extra,
                )
            else:
                backend = create_embedding(
                    prototype.backend,
                    num_features=group_features,
                    dim=group_dim,
                    compression_ratio=group_ratio,
                    optimizer=optimizer,
                    learning_rate=learning_rate,
                    dtype=dtype,
                    rng=rng,
                    **extra,
                )
            projection = None
            if group_dim != schema.embedding_dim:
                projection = xavier_uniform(
                    (group_dim, schema.embedding_dim), make_rng(rng), dtype=backend.dtype
                )
            shift = np.asarray(
                [global_offsets[i] for i in member_indices], dtype=np.int64
            ) - local_offsets[:-1]
            groups.append(
                TableGroup(
                    name=f"g{group_index}_{prototype.backend.lower()}",
                    backend=backend,
                    field_indices=np.asarray(member_indices, dtype=np.int64),
                    global_shift=shift,
                    projection=projection,
                    projection_lr=learning_rate * 0.1,
                    config=prototype,
                )
            )
        return cls(
            groups,
            num_fields=schema.num_fields,
            num_features=schema.num_features,
            dim=schema.embedding_dim,
        )

    @property
    def groups(self) -> tuple[TableGroup, ...]:
        return tuple(self._groups)

    # ------------------------------------------------------------------ #
    # Fused planner (store level: the per-group split of a batch)
    # ------------------------------------------------------------------ #
    def _check_matrix(self, ids: np.ndarray) -> np.ndarray:
        ids = as_id_array(ids)
        if ids.ndim != 2 or ids.shape[1] != self.num_fields:
            raise ValueError(
                f"TableGroupStore expects field-aligned ids of shape "
                f"(batch, {self.num_fields}), got {ids.shape}"
            )
        if ids.size:
            check_id_range(int(ids.min()), int(ids.max()), self.num_features)
        return ids

    def _build_routes(self, flat_ids: np.ndarray) -> dict[str, np.ndarray]:
        """Split the batch into per-group local-id sub-matrices, once.

        The arrays stored here are handed verbatim to the group backends in
        both ``lookup`` and ``apply_gradients``, so each backend's own plan
        cache sees the identical object and the intra-group hashing also
        runs once per step.
        """
        ids = flat_ids.reshape(-1, self.num_fields)
        return {
            f"local{index}": group.local_ids(ids)
            for index, group in enumerate(self._groups)
        }

    # ------------------------------------------------------------------ #
    # EmbeddingStore / CompressedEmbedding interface
    # ------------------------------------------------------------------ #
    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Fused gather: one sub-lookup per group, reassembled to
        ``(batch, fields, dim)`` with per-group projection.

        Per-group gathers run through :attr:`executor`; each task writes a
        disjoint column slice of the output.
        """
        ids = self._check_matrix(ids)
        plan = self.plan_for(ids)
        out = np.empty(ids.shape + (self.dim,), dtype=self.dtype)
        if ids.shape[0] == 0:
            return out

        def gather(group: TableGroup, local: np.ndarray) -> None:
            out[:, group.field_indices, :] = group.lookup_fused(local)

        self.executor.run(
            [
                (index, lambda g=group, l=plan.routes[f"local{index}"]: gather(g, l))
                for index, group in enumerate(self._groups)
            ]
        )
        return out

    @single_writer
    def apply_gradients(self, ids: np.ndarray, grads: np.ndarray) -> None:
        """Scatter fused gradients back into every group.

        Groups with a projection back-propagate through it (the narrow table
        receives ``grad @ P^T``; the projection itself trains on the outer
        product with the pre-update rows, the MDE rule).  Copy-on-write
        swaps happen serially on the calling thread before the fan-out.
        """
        ids = self._check_matrix(ids)
        grads = np.asarray(grads, dtype=self.dtype)
        if grads.shape != ids.shape + (self.dim,):
            raise ValueError(
                f"gradient shape {grads.shape} does not match {ids.shape + (self.dim,)}"
            )
        if ids.shape[0] == 0:
            return  # like every store: an empty batch is a no-op, not a step
        flat = grads.reshape(-1)
        if not np.isfinite(np.dot(flat, flat)):
            # Checked here, before the first group is touched: the per-group
            # wrappers would refuse too, but only after earlier groups applied.
            raise NonFiniteGradientError(
                "gradients contain NaN or inf; the batch was refused and no group was touched"
            )
        plan = self.plan_for(ids)
        tasks = []
        for index, group in enumerate(self._groups):
            self._ensure_private(index)
            group = self._groups[index]
            local = plan.routes[f"local{index}"]
            grad_slice = grads[:, group.field_indices, :]
            tasks.append((index, lambda g=group, l=local, gr=grad_slice: g.apply_fused(l, gr)))
        self.executor.run(tasks)
        self._step += 1

    @single_writer
    def rebalance(self) -> bool:
        """Fan one explicit adaptivity pass out across rebalance-capable groups."""
        supported = [
            index
            for index, group in enumerate(self._groups)
            if capability_registry.supports_rebalance(group.backend)
        ]
        if not supported:
            return False
        for index in supported:
            self._ensure_private(index)
        results = self.executor.run(
            [(index, self._groups[index].backend.rebalance) for index in supported]
        )
        self.invalidate_plan()
        return any(results)

    def memory_floats(self) -> int:
        """Sum of all group footprints (tables, auxiliaries, projections)."""
        return int(sum(group.memory_floats() for group in self._groups))

    # ------------------------------------------------------------------ #
    # Snapshots (group-wise copy-on-write)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> TableGroupSnapshot:
        """Freeze the current parameters into a read-only fused view.

        O(1) on the tables: group backends are frozen in place and marked
        copy-on-write (training's next write to a group swaps in a private
        deep copy).  The small projection matrices are copied eagerly so
        in-place projection updates never leak into the snapshot.
        """
        self.snapshots_taken += 1
        self._cow_pending = [True] * self.num_groups
        groups = [
            (
                group.backend,
                group.field_indices.copy(),
                group.global_shift.copy(),
                None if group.projection is None else group.projection.copy(),
            )
            for group in self._groups
        ]
        view = TableGroupSnapshot(
            groups=groups,
            dim=self.dim,
            num_fields=self.num_fields,
            num_features=self.num_features,
            dtype=self.dtype,
            version=self.snapshots_taken,
            step=self._step,
        )
        # Published arrays are read-only from here on (see the sharded-store
        # snapshot); the COW deep copy thaws the live side on its next write.
        freeze_arrays(view)
        return view

    def _ensure_private(self, group_index: int) -> None:
        if not self._cow_pending[group_index]:
            return
        self._groups[group_index] = copy.deepcopy(self._groups[group_index])
        self._cow_pending[group_index] = False
        self.cow_copies += 1

    # ------------------------------------------------------------------ #
    # Introspection / checkpointing
    # ------------------------------------------------------------------ #
    def merged_sketch(self):
        """One global HotSketch merged across sketch-carrying groups.

        Group sketches merge only when their bucket geometry matches (the
        SpaceSaving merge is bucket-wise); heterogeneous groups typically
        size sketches differently, in which case the largest group's sketch
        alone is returned — still the store's best hot-feature view.
        Returns ``None`` when no group carries a sketch.
        """
        sketches = [capability_registry.sketch_of(group.backend) for group in self._groups]
        return self._merge_sketches([sketch for sketch in sketches if sketch is not None])

    @staticmethod
    def _merge_sketches(sketches: list):
        if not sketches:
            return None
        geometry = {(s.num_buckets, s.slots_per_bucket, s.seed) for s in sketches}
        if len(geometry) == 1:
            return type(sketches[0]).merge_all(sketches)
        return max(sketches, key=lambda s: s.total_insertions)

    def group_summaries(self) -> list[dict]:
        """Per-group description rows (used by ``describe``)."""
        return [group.describe() for group in self._groups]

    def describe(self) -> dict:
        info = super().describe()
        info["num_groups"] = self.num_groups
        info["num_fields"] = self.num_fields
        info["executor"] = type(self.executor).__name__
        info["groups"] = self.group_summaries()
        return info

    def state_dict(self) -> dict[str, np.ndarray]:
        """Group-namespaced state: ``group{i}.backend.*`` per group plus the
        group headers; the inverse of :meth:`load_state_dict`.
        """
        state: dict[str, np.ndarray] = {
            "num_groups": np.asarray(self.num_groups),
            "step": np.asarray(self._step),
        }
        for group in self._groups:
            if not capability_registry.supports_state_dict(group.backend):
                name = getattr(group.backend, "backend_class", None) or type(
                    group.backend
                ).__name__
                raise NotImplementedError(
                    f"group '{group.name}' backend {name} does not support state_dict"
                )
        for index, group in enumerate(self._groups):
            state[f"group{index}.fields"] = group.field_indices.copy()
            if group.projection is not None:
                state[f"group{index}.projection"] = group.projection.copy()
            for key, value in group.backend.state_dict().items():
                state[f"group{index}.backend.{key}"] = value
        return state

    @single_writer
    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore group-namespaced state; also migrates flat checkpoints.

        A state dict without the ``num_groups`` header is the pre-table-group
        *flat* format — a bare layer's keys or a sharded store's
        ``shard{i}.*`` keys over the whole id space.  Only a single-group
        store can absorb one (its group spans the full id space, so the flat
        tables drop straight into the group backend); a multi-group store
        refuses with a clear error.  Counts as a write for copy-on-write.
        """
        if "num_groups" not in state:
            if self.num_groups != 1:
                raise ValueError(
                    "checkpoint has no table-group layout (flat format) and cannot be "
                    f"loaded into a {self.num_groups}-group store; re-save it through a "
                    "single-group TableGroupStore first"
                )
            flat = dict(state)
            if (
                "num_shards" in flat
                and capability_registry.shard_count(self._groups[0].backend) is None
            ):
                # A single-shard sharded-store checkpoint (what ensure_store
                # models wrote) loading into a bare group backend: unwrap
                # the shard0 prefix; a multi-shard flat checkpoint has no
                # single backend to land in.
                if int(flat["num_shards"]) != 1:
                    raise ValueError(
                        f"flat checkpoint has {int(flat['num_shards'])} shards and "
                        "cannot be loaded into an unsharded single-group store"
                    )
                flat = {
                    key[len("shard0."):]: value
                    for key, value in flat.items()
                    if key.startswith("shard0.")
                }
            self._ensure_private(0)
            self._load_backend(0, flat)
            # Flat checkpoints carry the step only inside the backend state;
            # adopt it so snapshots and re-saved group checkpoints keep it.
            self._step = int(self._groups[0].backend.step())
            self.invalidate_plan()
            return
        if int(state["num_groups"]) != self.num_groups:
            raise ValueError(
                f"checkpoint has {int(state['num_groups'])} groups, store has "
                f"{self.num_groups}"
            )
        for index, group in enumerate(self._groups):
            fields = np.asarray(state[f"group{index}.fields"], dtype=np.int64)
            if not np.array_equal(fields, group.field_indices):
                raise ValueError(
                    f"checkpoint group {index} owns fields {fields.tolist()}, store "
                    f"group owns {group.field_indices.tolist()}"
                )
            self._ensure_private(index)
            group = self._groups[index]
            projection_key = f"group{index}.projection"
            if (projection_key in state) != (group.projection is not None):
                raise ValueError(
                    f"checkpoint group {index} projection presence does not match the store"
                )
            if group.projection is not None:
                group.projection = np.asarray(
                    state[projection_key], dtype=self.dtype
                ).copy()
            prefix = f"group{index}.backend."
            self._load_backend(
                index,
                {
                    key[len(prefix):]: value
                    for key, value in state.items()
                    if key.startswith(prefix)
                },
            )
        self._step = int(state["step"])
        self.invalidate_plan()

    def _load_backend(self, index: int, state: dict[str, np.ndarray]) -> None:
        group = self._groups[index]
        if not capability_registry.supports_load_state_dict(group.backend):
            name = getattr(group.backend, "backend_class", None) or type(group.backend).__name__
            raise ValueError(f"group backend {name} cannot load a state dict")
        group.backend.load_state_dict(state)
