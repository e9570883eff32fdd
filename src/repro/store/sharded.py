"""Hash-partitioned sharding of any embedding backend.

A :class:`ShardedEmbeddingStore` splits the global feature-id space across
``N`` shards with a SplitMix64 hash; each shard is a full
:class:`~repro.embeddings.base.CompressedEmbedding` of any scheme (CAFE,
AdaEmbed, MDE, Q-R, hash, full) holding ``1/N`` of the total memory budget.
The store itself is also a ``CompressedEmbedding``: the generic wrapper
deduplicates the batch once at the store, and everything below it works on
sorted unique ids only.  The store caches the shard partition of a batch's
unique ids (one hash + one stable sort per step, shared by both halves of
the step); each shard caches its own routing plan.  With one shard the store
delegates to the backend, bit-exact with the direct-embedding path.

Plain-CAFE shards are *stacked* (:class:`~repro.embeddings.cafe.
CafeStack`): their state lives in one allocation per kind, the shards keep
views, and a step is one pass over the stack instead of a fan-out.

Snapshots are copy-on-write: :meth:`ShardedEmbeddingStore.snapshot` is O(1)
(it freezes the current shard objects); the first write to a frozen shard
replaces it (a stack: all of it, in one copy) with a private deep copy.

Per-shard work — ``lookup`` and ``apply_gradients`` — is fanned out through a
:class:`~repro.runtime.executor.SerialShardExecutor`, which times each
shard's task.  The tasks of one operation touch disjoint shard
objects, and all store-level bookkeeping (plan cache, copy-on-write swaps,
step counter) happens before or after the fan-out.
"""
from __future__ import annotations

import copy
import re
from functools import partial
from typing import Sequence

import numpy as np

from repro.analysis.sanitizer import freeze_arrays, single_writer
from repro.embeddings.base import CompressedEmbedding
from repro.embeddings.cafe import CafeStack
from repro.errors import CheckpointLayoutError
from repro.nn.optim import check_row_state
from repro.runtime.executor import SerialShardExecutor
from repro.store.snapshot import ShardPartition, StoreSnapshot
from repro.utils.hashing import hash_to_range

#: Default seed of the id -> shard hash (distinct from every backend seed so
#: shard assignment is independent of intra-shard routing).
DEFAULT_SHARD_SEED = 2029

#: A shard's (or a headerless layer's) row-optimizer state key.
_ROW_STATE_KEY = re.compile(r"(?:shard\d+\.)?optimizer\.(.+)")


class ShardedEmbeddingStore(CompressedEmbedding):
    """N hash-partitioned embedding shards behind one store interface.

    The store the models and trainer program against.  It is single-writer:
    exactly one thread (the trainer) calls ``apply_gradients`` or
    ``load_state_dict``, and ``lookup`` on the live store is not safe
    against it.  Any number of threads may read :meth:`snapshot` views,
    which are immutable by contract.
    """

    def __init__(
        self,
        shards: Sequence[CompressedEmbedding],
        shard_seed: int = DEFAULT_SHARD_SEED,
    ):
        shards = list(shards)
        if not shards:
            raise ValueError("ShardedEmbeddingStore requires at least one shard")
        dims = {shard.dim for shard in shards}
        features = {shard.num_features for shard in shards}
        if len(dims) != 1 or len(features) != 1:
            raise ValueError(
                f"all shards must agree on (num_features, dim); got dims={sorted(dims)}, "
                f"num_features={sorted(features)}"
            )
        super().__init__(shards[0].num_features, shards[0].dim, dtype=shards[0].dtype)
        self.use_frequency = shards[0].use_frequency
        self._shards = shards
        self.num_shards = len(shards)
        self.shard_seed = int(shard_seed)
        self.executor = SerialShardExecutor()
        # Shards become frozen (shared with a snapshot) when snapshot() runs;
        # the first write afterwards swaps in a private copy.
        self._cow_pending = [False] * self.num_shards
        self.snapshots_taken = 0
        self.cow_copies = 0
        if self.num_shards == 1:
            # The delegating fast path never touches the store-level plan
            # cache, so surface the backend's stats instead.
            self.plan_stats = self._shards[0].plan_stats
        self._stack: CafeStack | None = None
        self._restack()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        method: str,
        num_features: int,
        dim: int,
        num_shards: int,
        compression_ratio: float = 1.0,
        shard_seed: int = DEFAULT_SHARD_SEED,
        seed: int = 0,
        **kwargs,
    ) -> "ShardedEmbeddingStore":
        """Build ``num_shards`` shards of ``method`` splitting one budget.

        Every shard keeps the *global* id space (ids are not re-indexed; the
        shard hash decides ownership) but receives ``1/num_shards`` of the
        total float budget, which is expressed by scaling the per-shard
        compression ratio.  Remaining ``kwargs`` are forwarded to
        :func:`repro.embeddings.create_embedding` (e.g. ``optimizer``,
        ``field_cardinalities``).
        """
        from repro.embeddings import create_embedding

        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        shards = [
            create_embedding(
                method,
                num_features=num_features,
                dim=dim,
                compression_ratio=compression_ratio * num_shards,
                rng=np.random.default_rng(seed + 7919 * index),
                **kwargs,
            )
            for index in range(num_shards)
        ]
        return cls(shards, shard_seed=shard_seed)

    @property
    def shards(self) -> tuple[CompressedEmbedding, ...]:
        return tuple(self._shards)

    # ------------------------------------------------------------------ #
    # Routing (store level: the shard partition)
    # ------------------------------------------------------------------ #
    def _build_routes(self, uids: np.ndarray) -> dict:
        if self._stack is None:
            return {"partition": ShardPartition(uids, self.num_shards, self.shard_seed)}
        shard = hash_to_range(uids, self.num_shards, seed=self.shard_seed)
        routes = self._stack.routes(uids, shard)
        routes["shard"] = shard
        return routes

    def _routing_token(self) -> object:
        # A stacked plan routes through every shard's sketch, so it is tied
        # to every shard's own token as well.
        if self._stack is None:
            return self._routing_version
        return (self._routing_version, *(shard._routing_token() for shard in self._shards))

    def _fan_out(self, method: str, shards: list[int], args: list[tuple]) -> list:
        """Run ``method(*args[i])`` on every listed shard; results in order.

        The one fan-out path of the hot loop.  A single-shard store calls its
        shard directly: there is no fan-out to schedule or time.
        """
        thunks = [
            partial(getattr(self._shards[shard], method), *shard_args)
            for shard, shard_args in zip(shards, args)
        ]
        if self.num_shards == 1:
            return [thunks[0]()]
        return self.executor.run(list(zip(shards, thunks)))

    def _restack(self) -> None:
        """(Re)build the stack from the shards' current arrays, if they stack:
        S ≥ 2 plain-CAFE shards (:meth:`CafeStack.can_stack`)."""
        stackable = CafeStack.can_stack(self._shards)
        self._stack = CafeStack.stacked(self._shards) if stackable else None
        self.invalidate_plan()

    def __reduce_ex__(self, protocol):
        # A copy would sever the stacked shards' views from the stack.
        raise TypeError(
            "a ShardedEmbeddingStore is neither copied nor pickled: take snapshot() for a "
            "frozen view, state_dict() to save it"
        )

    # ------------------------------------------------------------------ #
    # CompressedEmbedding interface
    # ------------------------------------------------------------------ #
    def lookup_unique(self, uids: np.ndarray) -> np.ndarray:
        """Gather every id's row from its owning shard.

        The shard partition of the unique ids is computed (or reused from the
        plan cache) on the calling thread; per-shard gathers then run through
        :attr:`executor` and land in slices of one ``(U, dim)`` buffer.  A
        stacked store gathers every row in one pass over the stack instead.
        """
        if self.num_shards == 1:
            return self._shards[0].lookup_unique(uids)
        routes = self.plan_for(uids).routes
        if self._stack is not None:
            return self._stack.lookup(routes)
        partition = routes["partition"]
        rows = self._fan_out(
            "lookup_unique", partition.shards, [(shard_uids,) for shard_uids in partition.shard_uids]
        )
        return partition.merge(rows, self.dim, self.dtype)

    @single_writer
    def apply_gradients(self, ids: np.ndarray, grads: np.ndarray) -> None:
        super().apply_gradients(ids, grads)

    def apply_unique(self, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray) -> None:
        """Hand every owning shard its slice of ``(uids, grad_sums, scores)``.

        Copy-on-write swaps (:meth:`_ensure_private`) happen serially on the
        calling thread *before* the fan-out, so outstanding snapshots never
        observe a write and the executor tasks only ever touch private,
        mutually disjoint shard objects.  A stacked store runs one step over
        the whole stack instead of the fan-out.
        """
        if self._stack is not None:
            plan = self.plan_for(uids)
            self._ensure_private(0)
            self._stack.apply(plan, uids, grad_sums, scores, plan.routes["shard"])
        else:
            self._apply_fan_out(uids, grad_sums, scores)
        self.executor.stats.record_grad_exchange(uids.nbytes + grad_sums.nbytes + scores.nbytes)
        self._step += 1

    def _apply_fan_out(self, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray) -> None:
        if self.num_shards == 1:
            shards, shard_uids, shard_grads, shard_scores = [0], [uids], [grad_sums], [scores]
        else:
            partition = self.plan_for(uids).routes["partition"]
            shards, shard_uids = partition.shards, partition.shard_uids
            shard_grads, shard_scores = partition.split(grad_sums), partition.split(scores)
        for shard in shards:
            self._ensure_private(shard)
        self._fan_out("apply_unique", shards, list(zip(shard_uids, shard_grads, shard_scores)))

    def memory_floats(self) -> int:
        """Sum of all shard footprints (each shard holds 1/N of the budget)."""
        return int(sum(shard.memory_floats() for shard in self._shards))

    # ------------------------------------------------------------------ #
    # Snapshots (copy-on-write)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> StoreSnapshot:
        """Freeze the current parameters into a read-only serving view.

        O(1): no tables are copied here.  The store marks every shard as
        shared; training's next write to a shard replaces it with a private
        deep copy (:attr:`cow_copies` counts those), so the returned view
        keeps serving exactly the values visible now.
        """
        self.snapshots_taken += 1
        self._cow_pending = [True] * self.num_shards
        if self._stack is not None:
            # Freezing the shards' views alone would not stop a write
            # through the stack that skipped copy-on-write.
            freeze_arrays(self._stack)
        view = StoreSnapshot(
            shards=tuple(self._shards),
            shard_seed=self.shard_seed,
            dim=self.dim,
            num_features=self.num_features,
            dtype=self.dtype,
            version=self.snapshots_taken,
            step=self._step,
        )
        # Published arrays are read-only from here on: a stray serve-path
        # write raises instead of corrupting readers.  Training thaws shards
        # naturally — the COW deep copy yields private writable arrays.
        freeze_arrays(view)
        return view

    def _ensure_private(self, shard_index: int) -> None:
        if not self._cow_pending[shard_index]:
            return
        if self._stack is not None:  # every shard goes private, in one copy
            self._stack = self._stack.copy()
            self._shards = self._stack.members
            self._cow_pending = [False] * self.num_shards
        else:
            self._shards[shard_index] = copy.deepcopy(self._shards[shard_index])
            self._cow_pending[shard_index] = False
        self.cow_copies += 1
        if self.num_shards == 1:
            self.plan_stats = self._shards[0].plan_stats

    # ------------------------------------------------------------------ #
    # Introspection / checkpointing
    # ------------------------------------------------------------------ #
    def merged_sketch(self):
        """One global HotSketch: the pairwise SpaceSaving merge of every
        shard's.  Shards that track no sketch (anything but CAFE-style
        backends) raise ``NotImplementedError``."""
        sketches = [shard.merged_sketch() for shard in self._shards]
        return type(sketches[0]).merge_all(sketches)

    def describe(self) -> dict[str, float | int | str]:
        info = super().describe()
        info["num_shards"] = self.num_shards
        info["backend"] = type(self._shards[0]).__name__
        info["executor"] = type(self.executor).__name__
        info["stacked"] = self._stack is not None
        return info

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flatten every shard's state under ``shard{i}.`` prefixes plus the
        ``num_shards`` and ``step`` headers; the inverse of
        :meth:`load_state_dict`.  Raises the shards' ``NotImplementedError``
        when their backend has no state.
        """
        state: dict[str, np.ndarray] = {
            "num_shards": np.asarray(self.num_shards),
            "step": np.asarray(self._step),
        }
        for index, shard in enumerate(self._shards):
            for key, value in shard.state_dict().items():
                state[f"shard{index}.{key}"] = value
        return state

    def check_state_layout(self, state: dict[str, np.ndarray]) -> None:
        """Raise :class:`~repro.errors.CheckpointLayoutError` unless ``state``
        fits this store: a ``num_shards`` header equal to :attr:`num_shards`,
        or no header (a bare layer's keys, the pre-store format) and one
        shard; a ``step`` header is optional.  Raise
        :class:`~repro.errors.OptimizerStateMismatchError` for
        ``optimizer.*`` entries the shards' row optimizer cannot take (none
        at all fit: it restarts cold).  Reads the keys and headers
        only, so a checkpoint is refused before any part of it is restored.
        """
        if "num_groups" in state:
            raise CheckpointLayoutError(
                f"checkpoint holds a {int(state['num_groups'])}-group table-group store "
                "(num_groups, group{i}.backend.* keys); table-group checkpoints are no "
                "longer loadable"
            )
        if "num_shards" not in state:
            if self.num_shards != 1:
                raise CheckpointLayoutError(
                    "checkpoint has no shard layout and cannot be loaded into a "
                    f"{self.num_shards}-shard store"
                )
        elif int(state["num_shards"]) != self.num_shards:
            raise CheckpointLayoutError(
                f"checkpoint has {int(state['num_shards'])} shards, store has {self.num_shards}"
            )
        check_row_state(
            getattr(self._shards[0], "_optimizer", None),
            {match[1] for match in map(_ROW_STATE_KEY.match, state) if match},
        )

    @single_writer
    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore all shards from :meth:`state_dict` output (the layout must
        pass :meth:`check_state_layout`); also absorbs a pre-store
        single-layer checkpoint into a single-shard store.  Counts as a write
        for copy-on-write purposes.  The store's :meth:`step` comes back from
        the ``step`` header (a bare layer's own ``step`` is the same count);
        a state without one leaves it as it was.
        """
        self.check_state_layout(state)
        if "num_shards" not in state:
            # Checkpoint written against a bare embedding layer.
            self._load_into_shard(0, dict(state))
            self.invalidate_plan()
        else:
            for index in range(self.num_shards):
                prefix = f"shard{index}."
                self._load_into_shard(
                    index,
                    {key[len(prefix):]: value for key, value in state.items() if key.startswith(prefix)},
                )
            # A shard's row optimizer may have adopted private arrays.
            self._restack()
        if "step" in state:
            self._step = int(state["step"])

    def _load_into_shard(self, index: int, state: dict[str, np.ndarray]) -> None:
        # Restoring is a write: never mutate a shard a snapshot still serves.
        self._ensure_private(index)
        self._shards[index].load_state_dict(state)


def ensure_store(embedding: CompressedEmbedding) -> ShardedEmbeddingStore:
    """Adapt ``embedding`` to the store interface.

    Stores pass through unchanged; a bare embedding layer is wrapped in a
    single-shard store that delegates to it directly (bit-exact with
    calling the layer itself).

    >>> from repro.embeddings.hash_embedding import HashEmbedding
    >>> store = ensure_store(HashEmbedding(100, 4, num_rows=10, rng=0))
    >>> store.num_shards, store.num_features, store.dim
    (1, 100, 4)
    >>> ensure_store(store) is store
    True
    """
    if isinstance(embedding, ShardedEmbeddingStore):
        return embedding
    return ShardedEmbeddingStore([embedding])
