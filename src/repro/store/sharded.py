"""A sharded embedding store: one backend, or one CAFE stack of shards.

A :class:`ShardedEmbeddingStore` splits the global feature-id space across
``N`` shards with a SplitMix64 hash, each shard holding ``1/N`` of the total
memory budget.  The store itself is also a ``CompressedEmbedding``: the
generic wrapper deduplicates the batch once at the store, and everything
below it works on sorted unique ids only.

The store holds one *table*: with one shard, of any backend, that backend
(bit-exact with the direct-embedding path); with ``N ≥ 2``, one
:class:`~repro.embeddings.cafe.CafeStack`: plain ``cafe`` shards of one
geometry whose state lives in one allocation per kind, so a shard is a
bucket and row range and a step is one pass over the stack.  Any other
backend at ``N ≥ 2`` is a :class:`~repro.errors.ConfigurationError` (split
S ways by a second hash, a hash table is still one hashing-trick table).
Both kinds of table share one contract — ``routes`` / ``gather`` /
``apply`` / ``memory_floats`` and a routing token — so every store method
runs one path, and the routing-plan cache is the store's at every shard
count.

Snapshots are copy-on-write: :meth:`ShardedEmbeddingStore.snapshot` is O(1)
(it freezes the store's one table); the first write afterwards replaces it
with a private deep copy (a stack: all of it, in one copy).
"""
from __future__ import annotations

import copy
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from repro.analysis.sanitizer import freeze_arrays, single_writer
from repro.embeddings import create_embedding
from repro.embeddings.base import CompressedEmbedding
from repro.embeddings.cafe import CafeStack
from repro.embeddings.plan import RoutingPlan
from repro.errors import CheckpointLayoutError, ConfigurationError, MemoryBudgetError
from repro.nn.module import check_fits, section
from repro.store.snapshot import StoreSnapshot

#: Seed of the id -> shard hash (distinct from every backend seed so shard
#: assignment is independent of intra-shard routing).
DEFAULT_SHARD_SEED = 2029


class ExecutorStats:
    """The trainer→store payload of every ``apply_gradients`` step (unique
    ids, per-id gradient sums and scores), read as ``store.executor.stats``.
    A store never fans out, so ``fanout_wall_s`` and ``parallel_efficiency``
    are 0."""

    fanout_wall_s = parallel_efficiency = 0.0

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.grad_bytes = self.grad_steps = 0

    @property
    def grad_bytes_per_step(self) -> float:
        """Mean payload bytes per ``apply_gradients`` step."""
        return self.grad_bytes / self.grad_steps if self.grad_steps else 0.0


class ShardedEmbeddingStore(CompressedEmbedding):
    """N hash-partitioned embedding shards behind one store interface.

    The store the models and trainer program against.  It is single-writer:
    exactly one thread (the trainer) calls ``apply_gradients`` or
    ``load_state_dict``, and ``lookup`` on the live store is not safe
    against it.  Any number of threads may read :meth:`snapshot` views,
    which are immutable by contract.

    One shard may be any backend (the store's table is that backend);
    ``N ≥ 2`` shards must stack into the table
    (:meth:`CafeStack.can_stack`: plain ``cafe`` layers of one geometry
    and row optimizer), or construction raises
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, shards: Sequence[CompressedEmbedding]):
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
        if len(shards) > 1 and not CafeStack.can_stack(shards):
            backends = sorted({type(shard).__name__ for shard in shards})
            raise ConfigurationError(
                f"a store of {len(shards)} shards is one CAFE stack, so only 'cafe' shards "
                f"(CafeEmbedding, one geometry and row optimizer) shard; got {backends}. "
                "Build any other backend with num_shards=1"
            )
        super().__init__(shards[0].num_features, shards[0].dim, dtype=shards[0].dtype)
        self.use_frequency = shards[0].use_frequency
        self.num_shards = len(shards)
        #: The one table: the backend, or the stack of the shards (which
        #: holds the id -> shard seed).
        self._table = shards[0] if len(shards) == 1 else CafeStack.stacked(shards, DEFAULT_SHARD_SEED)
        #: ``perf/workloads.py`` reads ``store.executor.stats``.
        self.executor = SimpleNamespace(stats=ExecutorStats())
        # The table becomes frozen (shared with a snapshot) when snapshot()
        # runs; the first write afterwards swaps in a private copy.
        self._cow_pending = False
        self.snapshots_taken = 0
        self.cow_copies = 0

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
        seed: int = 0,
        **kwargs,
    ) -> "ShardedEmbeddingStore":
        """Build ``num_shards`` shards of ``method`` splitting one budget.

        Every shard keeps the *global* id space (ids are not re-indexed; the
        shard hash decides ownership) but receives ``1/num_shards`` of the
        total float budget, which is expressed by scaling the per-shard
        compression ratio.  Remaining ``kwargs`` are forwarded to
        :func:`repro.embeddings.create_embedding` (e.g. ``optimizer``,
        ``field_cardinalities``).  ``num_shards ≥ 2`` takes ``cafe``.  A
        ratio below 1 (more floats than the full table) raises
        :class:`~repro.errors.MemoryBudgetError` before any shard is built.
        """
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if not compression_ratio >= 1:
            raise MemoryBudgetError(
                f"compression ratio must be at least 1, got {compression_ratio} "
                "(1 is the full table)"
            )
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
        return cls(shards)

    @property
    def shards(self) -> tuple[CompressedEmbedding, ...]:
        """The shard layers: the stack's members, or the one backend."""
        table = self._table
        return tuple(table.members) if isinstance(table, CafeStack) else (table,)

    def __reduce_ex__(self, protocol):
        # A copy would sever the stacked shards' views from the stack.
        raise TypeError(
            "a ShardedEmbeddingStore is neither copied nor pickled: take snapshot() for a "
            "frozen view, state_dict() to save it"
        )

    # ------------------------------------------------------------------ #
    # CompressedEmbedding interface: the table's, through the store's plans
    # ------------------------------------------------------------------ #
    def routes(self, uids: np.ndarray) -> dict[str, np.ndarray]:
        return self._table.routes(uids)

    def _routing_token(self) -> object:
        # A plan is tied to the table's routing state as well as to the
        # store's own invalidations (checkpoint load).
        return (self._routing_version, self._table._routing_token())

    def gather(self, uids: np.ndarray, routes: dict[str, np.ndarray]) -> np.ndarray:
        return self._table.gather(uids, routes)

    @single_writer
    def apply_gradients(self, ids: np.ndarray, grads: np.ndarray) -> None:
        super().apply_gradients(ids, grads)

    def apply(
        self, plan: RoutingPlan, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray
    ) -> None:
        """Apply ``(uids, grad_sums, scores)`` as one step of the table.  The
        copy-on-write swap (:meth:`_ensure_private`) comes first, so
        outstanding snapshots never observe a write; the plan stays the
        store's, so the copy keeps it."""
        self._ensure_private()
        self._table.apply(plan, uids, grad_sums, scores)
        stats = self.executor.stats
        stats.grad_bytes += uids.nbytes + grad_sums.nbytes + scores.nbytes
        stats.grad_steps += 1
        self._step += 1

    def memory_floats(self) -> int:
        """The table's footprint (each shard holds 1/N of the budget)."""
        return int(self._table.memory_floats())

    # ------------------------------------------------------------------ #
    # Snapshots (copy-on-write)
    # ------------------------------------------------------------------ #
    def snapshot(self) -> StoreSnapshot:
        """Freeze the current parameters into a read-only serving view.

        O(1): no tables are copied here.  The view holds the store's one
        table and the store marks it as shared; training's next write
        replaces it with a private deep copy (:attr:`cow_copies` counts
        those), so the returned view keeps serving exactly the values
        visible now.
        """
        self.snapshots_taken += 1
        self._cow_pending = True
        view = StoreSnapshot(
            table=self._table,
            dim=self.dim,
            num_features=self.num_features,
            dtype=self.dtype,
            version=self.snapshots_taken,
            step=self._step,
        )
        # Published arrays (a stack's own, not only its shards' views) are
        # read-only from here on: a stray write that skipped copy-on-write
        # raises instead of corrupting readers.  Training thaws the table
        # naturally — the COW deep copy yields private writable arrays.
        freeze_arrays(view)
        return view

    def _ensure_private(self) -> None:
        if not self._cow_pending:
            return
        self._table = copy.deepcopy(self._table)  # a stack: in one copy
        self._cow_pending = False
        self.cow_copies += 1

    # ------------------------------------------------------------------ #
    # Introspection / checkpointing
    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, float | int | str]:
        info = super().describe()
        info["num_shards"] = self.num_shards
        info["backend"] = type(self.shards[0]).__name__
        info["stacked"] = self.num_shards > 1
        return info

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flatten every shard's state under ``shard{i}.`` prefixes plus the
        ``num_shards`` and ``step`` headers; the inverse of
        :meth:`load_state_dict`.  Raises the shards' ``NotImplementedError``
        when their backend has no state.
        """
        state = self._headers()
        for prefix, shard in self._sections().items():
            state.update({prefix + key: value for key, value in shard.state_dict().items()})
        return state

    def check_state(self, state: dict[str, np.ndarray]) -> None:
        """Raise a named error unless ``state`` fits this store; writes
        nothing.  The headers first (:class:`~repro.errors.CheckpointLayoutError`
        for a table-group store's ``num_groups``, or a ``num_shards`` other
        than :attr:`num_shards`; without one the state is a bare layer's, the
        pre-store format, and fits one shard only), then every shard's
        section (:func:`~repro.nn.module.check_fits`; ``step`` is optional)."""
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
            self.shards[0].check_state(state)
            return
        if int(state["num_shards"]) != self.num_shards:
            raise CheckpointLayoutError(
                f"checkpoint has {int(state['num_shards'])} shards, store has {self.num_shards}"
            )
        check_fits(
            state, self._headers(),  # the rest of state_dict() is the shards' sections
            f"checkpoint holds {{found}}; a {self.num_shards}-shard store takes {{takes}}",
            optional=("step",), parts=self._sections(),
        )

    def _headers(self) -> dict[str, np.ndarray]:
        return {"num_shards": np.asarray(self.num_shards), "step": np.asarray(self._step)}

    def _sections(self) -> dict[str, CompressedEmbedding]:
        """Each shard by the prefix of its section of :meth:`state_dict`."""
        return {f"shard{index}.": shard for index, shard in enumerate(self.shards)}

    @single_writer
    def write_state(self, state: dict[str, np.ndarray]) -> None:
        """Write a state :meth:`check_state` passed, checking nothing: every
        shard's ``write_state`` in place, so a stack's shards keep viewing
        it; a pre-store single-layer state goes to a single-shard store's
        shard.  Counts as a write for copy-on-write purposes.  The store's
        :meth:`step` comes back from the ``step`` header (a bare layer's own
        ``step`` is the same count); a state without one leaves it as it was.
        """
        # Restoring is a write: never mutate a table a snapshot still serves.
        self._ensure_private()
        if "num_shards" not in state:  # written against a bare embedding layer
            self.shards[0].write_state(state)
        else:
            for prefix, shard in self._sections().items():
                shard.write_state(section(state, prefix))
        self.invalidate_plan()
        if "step" in state:
            self._step = int(state["step"])


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
