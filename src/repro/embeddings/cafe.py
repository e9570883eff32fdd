"""CAFE: the Compact, Adaptive and Fast embedding layer (paper Section 3).

The layer combines three pieces:

* a :class:`~repro.sketch.hotsketch.HotSketch` that accumulates per-feature
  importance scores (L2 norms of the per-lookup gradients) and stores, for
  each currently-hot feature, a pointer to its exclusive embedding row;
* an *exclusive* table with one row per hot feature;
* a *shared* hash table for the long tail of non-hot features.

Migration (§3.3): when a non-hot feature's score crosses the hot threshold
and a free exclusive row exists, the row is initialized from the feature's
current shared embedding and the pointer is written into the sketch slot.
When a hot feature's score falls below the threshold (through decay) or its
slot is evicted by SpaceSaving replacement, the exclusive row is released and
the feature falls back to the shared table.

The hot threshold can be a fixed value (as in the paper's sensitivity study,
Figure 15b) or adaptive: the adaptive controller nudges the threshold so that
the exclusive table stays saturated, which is what the paper describes as the
threshold being "meticulously set, allowing HotSketch to always saturate with
hot features".

Storage layout: all region tables (``hot_table``, ``shared_table``, and any
subclass extras) are contiguous row-range *views* into one arena matrix.
That turns the train-step hot path into single passes — lookup is one
arena gather, and ``apply_unique`` is one segment-sum + one optimizer
scatter over arena row indices resolved at plan-build time, through the one
row optimizer whose per-row state spans the arena — while every region
keeps its familiar per-table identity for tests and checkpoints.

The step itself is :class:`CafeStack`'s: a layer is a stack of one, and a
sharded store runs it once over all its CAFE shards, stacked.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.embeddings.base import TableBackedEmbedding
from repro.embeddings.memory import MemoryBudget
from repro.embeddings.plan import FreeRowPool, RoutingPlan
from repro.errors import CheckpointLayoutError
from repro.nn.init import embedding_uniform
from repro.sketch.hotsketch import NO_PAYLOAD, HotSketch
from repro.utils.hashing import hash_to_bucket, hash_to_range
from repro.utils.rng import SeedLike, make_rng

# Memory cost of the sketch per hot feature: ``slots_per_bucket`` slots of 3
# attributes each (key, score, pointer), as used in the paper's §5.3 memory
# split ("the ratio of memory usage between HotSketch and d dimension
# exclusive embeddings is 12 : d" with 4 slots per bucket).
SKETCH_ATTRIBUTES_PER_SLOT = 3

#: HotSketch slots per bucket unless a layer is given another count (the
#: paper's 4).
SLOTS_PER_BUCKET = 4

#: Share of a memory budget spent on the sketch plus the exclusive table
#: unless a layer is given another share (the paper's "hot percentage",
#: §5.3, best at around 0.7); the rest goes to the shared hash table.
HOT_PERCENTAGE = 0.7

#: The hot threshold an adaptive layer starts from, before its first
#: threshold update.
INITIAL_THRESHOLD = 1.0

#: Width of the band around the hot threshold: a hot feature is demoted only
#: once its score falls below ``threshold / HYSTERESIS``, so a feature at the
#: boundary does not thrash between the exclusive and shared tables.
HYSTERESIS = 1.1

#: Seed of the HotSketch bucket hash.
SKETCH_SEED = 7


def rows_partition(free_rows: np.ndarray, payloads: np.ndarray, num_rows: int) -> bool:
    """Whether the free rows and the sketch-assigned rows (the ``payloads``
    that are not ``NO_PAYLOAD``) partition ``[0, num_rows)``: each exclusive
    row is free or assigned, once."""
    rows = np.concatenate([payloads[payloads != NO_PAYLOAD], free_rows])
    return np.array_equal(np.sort(rows), np.arange(num_rows))


class CafeEmbedding(TableBackedEmbedding):
    """Hot/cold separated embedding driven by HotSketch."""

    _state_owner = "a CAFE shard"
    _state_parts = {"sketch.": "sketch", "optimizer.": "_optimizer"}
    #: Seed of the hash of non-hot ids into the shared table.
    hash_seed = 101

    def __init__(
        self,
        num_features: int,
        dim: int,
        num_hot_rows: int,
        num_shared_rows: int,
        hot_threshold: float | None = None,
        slots_per_bucket: int = SLOTS_PER_BUCKET,
        decay: float = 0.98,
        decay_interval: int = 1000,
        rebalance_interval: int = 20,
        use_frequency: bool = False,
        rng: SeedLike = None,
        **table,
    ):
        super().__init__(num_features, dim, **table)
        if num_hot_rows <= 0:
            raise ValueError(f"num_hot_rows must be positive, got {num_hot_rows}")
        if num_shared_rows <= 0:
            raise ValueError(f"num_shared_rows must be positive, got {num_shared_rows}")
        threshold = INITIAL_THRESHOLD if hot_threshold is None else hot_threshold
        if threshold <= 0:
            raise ValueError(f"the hot threshold must be positive, got {threshold}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        generator = make_rng(rng)

        self.num_hot_rows = int(num_hot_rows)
        self.num_shared_rows = int(num_shared_rows)
        self.adaptive_threshold = hot_threshold is None
        self.hot_threshold = float(threshold)
        self.slots_per_bucket = int(slots_per_bucket)
        self.decay = float(decay)
        self.decay_interval = int(decay_interval)
        self.rebalance_interval = int(rebalance_interval)
        self.use_frequency = bool(use_frequency)

        self.sketch = HotSketch(self.num_hot_rows, self.slots_per_bucket, SKETCH_SEED)
        self._build_arena(generator)
        self._optimizer = self._new_row_optimizer(self._arena)
        self._free_rows = FreeRowPool(self.num_hot_rows)
        self.migrations_in = 0
        self.migrations_out = 0

    # ------------------------------------------------------------------ #
    # Arena layout (region tables are views into one contiguous matrix)
    # ------------------------------------------------------------------ #
    def _arena_regions(self) -> list[tuple[str, int]]:
        """``(attribute_name, num_rows)`` per region, in arena order.

        Subclasses with more tables append to this list; the regions are
        laid out (and their initial values drawn from the RNG) in exactly
        this order, so the per-table initialization matches the historical
        separate-table construction draw for draw.
        """
        return [("hot_table", self.num_hot_rows), ("shared_table", self.num_shared_rows)]

    def _build_arena(self, rng: np.random.Generator) -> None:
        regions = self._arena_regions()
        total = sum(rows for _, rows in regions)
        self._arena = np.empty((total, self.dim), dtype=self.dtype)
        self._region_offsets: dict[str, int] = {}
        offset = 0
        for name, rows in regions:
            self._region_offsets[name] = offset
            self._arena[offset : offset + rows] = embedding_uniform(
                (rows, self.dim), rng, dtype=self.dtype
            )
            offset += rows
        self._bind_arena_views()
        self._shared_offset = self._region_offsets["shared_table"]

    def _bind_arena_views(self) -> None:
        for name, rows in self._arena_regions():
            offset = self._region_offsets[name]
            setattr(self, name, self._arena[offset : offset + rows])

    def __getstate__(self):
        # Region tables are views into the arena; pickling them by value
        # would sever the aliasing, so they are dropped here and rebuilt in
        # __setstate__.
        state = self.__dict__.copy()
        for name, _ in self._arena_regions():
            state.pop(name, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_arena_views()

    # ------------------------------------------------------------------ #
    # Shared-table hooks (overridden by the multi-level variant)
    # ------------------------------------------------------------------ #
    def _shared_routes(self, cold_ids: np.ndarray) -> dict[str, np.ndarray]:
        """Routing of non-hot ids through the shared table(s)."""
        return {"shared_rows": hash_to_range(cold_ids, self.num_shared_rows, seed=self.hash_seed)}

    def _shared_lookup_routed(self, routes: dict[str, np.ndarray]) -> np.ndarray:
        return self.shared_table[routes["shared_rows"]]

    def _shared_lookup(self, ids: np.ndarray) -> np.ndarray:
        return self._shared_lookup_routed(self._shared_routes(ids))

    def _shared_table_floats(self) -> int:
        return int(self.shared_table.size)

    # ------------------------------------------------------------------ #
    # Scatter hooks (overridden by the multi-level variant)
    # ------------------------------------------------------------------ #
    def _scatter_entries(
        self, arena_rows: np.ndarray, routes: dict[str, np.ndarray]
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """``(sources, rows)`` scatter entries for the update.

        Base CAFE scatters each id's gradient sum into exactly one arena row,
        so sources are implicit (``None`` = identity) and no gradient gather
        is needed.  Subclasses where one id updates several rows (summation
        pooling) return an explicit index into the unique axis per entry.
        """
        return None, arena_rows

    def _lookup_fused_extra(self, out: np.ndarray, routes: dict[str, np.ndarray]) -> None:
        """Add contributions beyond the primary arena gather (subclass hook)."""

    # ------------------------------------------------------------------ #
    # Budget-driven construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_budget(
        cls, budget: MemoryBudget, hot_percentage: float = HOT_PERCENTAGE, **kwargs
    ) -> "CafeEmbedding":
        """Split ``budget`` between sketch + exclusive rows and the shared
        table (:meth:`plan_budget`, at the layer's ``slots_per_bucket``);
        every other keyword goes to the constructor."""
        slots = kwargs.get("slots_per_bucket", SLOTS_PER_BUCKET)
        num_hot, num_shared = cls.plan_budget(budget, hot_percentage, slots)
        return cls(budget.num_features, budget.dim, num_hot, num_shared, **kwargs)

    @staticmethod
    def plan_budget(
        budget: MemoryBudget, hot_percentage: float, slots_per_bucket: int = SLOTS_PER_BUCKET
    ) -> tuple[int, int]:
        """Return ``(num_hot_rows, num_shared_rows)``: ``hot_percentage`` of
        the budget goes to the sketch plus the exclusive table, the rest to
        the shared hash table."""
        if not 0.0 < hot_percentage <= 1.0:
            raise ValueError(f"hot_percentage must be in (0, 1], got {hot_percentage}")
        sketch_cost = slots_per_bucket * SKETCH_ATTRIBUTES_PER_SLOT  # floats per hot row
        hot_budget = hot_percentage * budget.total_floats
        num_hot = max(int(hot_budget // (sketch_cost + budget.dim)), 1)
        used_by_hot = num_hot * (sketch_cost + budget.dim)
        remaining = max(budget.total_floats - used_by_hot, 0)
        num_shared = max(int(remaining // budget.dim), 1)
        return num_hot, min(num_shared, budget.num_features)

    # ------------------------------------------------------------------ #
    # Routing plan (built by routes, shared by gather and apply)
    # ------------------------------------------------------------------ #
    def _routing_token(self) -> object:
        # Any sketch insertion can move a feature between the hot and shared
        # paths, so the cached plan is tied to the insertion count as well as
        # to explicit invalidation (migration, checkpoint load).
        return (self._routing_version, self.sketch.total_insertions)

    def routes(self, uids: np.ndarray) -> dict[str, np.ndarray]:
        return self._solo().routes(uids)

    def _solo(self) -> "CafeStack":
        """This layer as a stack of one: its own sketch, arena and optimizer."""
        return CafeStack([self], self.sketch, self._arena, self._optimizer)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def gather(self, uids: np.ndarray, routes: dict[str, np.ndarray]) -> np.ndarray:
        """Gather hot features (sketch payload points at an exclusive row) from
        the hot table and the rest from the shared hashed table, per the
        routing plan (paper Fig. 4 serving path).  With the arena layout both
        cases are one gather over precomputed arena rows.
        """
        return self._solo().gather(uids, routes)

    # ------------------------------------------------------------------ #
    # Gradient application + sketch maintenance
    # ------------------------------------------------------------------ #
    def apply(
        self, plan: RoutingPlan, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray
    ) -> None:
        """Update hot/shared rows, feed the importance scores into HotSketch,
        and run the periodic decay / threshold / migration passes (paper §3).
        """
        self._solo().apply(plan, uids, grad_sums, scores)

    def _finish_step(self, released_rows: np.ndarray) -> None:
        """Release evicted rows, then the periodic decay, threshold
        adaptation and migration passes of one step."""
        if released_rows.shape[0]:
            self._release_rows(released_rows)
        self._step += 1
        if self.decay < 1.0 and self._step % self.decay_interval == 0:
            self.sketch.apply_decay(self.decay)
        if self._step % self.rebalance_interval == 0 or self._step == 1:
            if self.adaptive_threshold:
                self._update_threshold()
            self._rebalance()
        self.invalidate_plan()

    # ------------------------------------------------------------------ #
    # Migration machinery (§3.3)
    # ------------------------------------------------------------------ #
    def _release_rows(self, rows: np.ndarray) -> None:
        self.migrations_out += self._free_rows.release(rows)

    def _update_threshold(self) -> None:
        """Track the score of the ``num_hot_rows``-th hottest recorded feature.

        The paper sets a threshold "meticulously ... allowing HotSketch to
        always saturate with hot features"; tracking the k-th largest recorded
        score (k = number of exclusive rows) keeps exactly that property while
        following distribution changes automatically.
        """
        occupied = self.sketch.keys != -1
        scores = self.sketch.scores[occupied]
        if scores.size == 0:
            return
        k = min(self.num_hot_rows, scores.size)
        kth = float(np.partition(scores, -k)[-k])
        if kth > 0:
            self.hot_threshold = kth

    def _rebalance(self) -> None:
        """Migrate features across the hot/non-hot boundary (both directions).

        Demotion and promotion use a hysteresis band around the threshold so
        features sitting exactly at the boundary do not thrash between the
        exclusive and shared tables on every call.
        """
        keys = self.sketch.keys
        scores = self.sketch.scores
        payloads = self.sketch.payloads
        occupied = keys != -1

        # Hot -> non-hot: the slot's score fell below the demotion band
        # (after decay or because other features overtook it).
        demote_mask = occupied & (payloads != NO_PAYLOAD) & (scores < self.hot_threshold / HYSTERESIS)
        if demote_mask.any():
            released = payloads[demote_mask]
            self.sketch.payloads[demote_mask] = NO_PAYLOAD
            self._release_rows(released)

        if not self._free_rows:
            return

        # Non-hot -> hot: promote the highest-scoring candidates above the
        # threshold into the free rows (demotion uses the lower edge of the
        # hysteresis band, so borderline features do not bounce).  All
        # promotions of one rebalance happen as a single batched
        # shared-lookup + one reset_rows call.
        promote_mask = occupied & (payloads == NO_PAYLOAD) & (scores >= self.hot_threshold)
        if not promote_mask.any():
            return
        buckets, slots = np.nonzero(promote_mask)
        order = np.argsort(scores[buckets, slots], kind="stable")[::-1]
        rows = self._free_rows.claim(order.size)
        if rows.size == 0:
            return
        chosen = order[: rows.size]
        buckets, slots = buckets[chosen], slots[chosen]
        features = keys[buckets, slots]
        self.sketch.payloads[buckets, slots] = rows
        # Initialize from the shared embeddings so training stays smooth.
        self.hot_table[rows] = self._shared_lookup(features)
        self._optimizer.reset_rows(rows)  # hot rows sit at arena offset 0
        self.migrations_in += int(rows.size)
        self.invalidate_plan()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def hot_occupancy(self) -> float:
        """Fraction of exclusive rows currently assigned to a hot feature."""
        return 1.0 - len(self._free_rows) / self.num_hot_rows

    def num_hot_features(self) -> int:
        return self.num_hot_rows - len(self._free_rows)

    def merged_sketch(self) -> HotSketch:
        return self.sketch

    def check_row_invariants(self) -> None:
        """Assert free rows + sketch-assigned rows exactly partition the hot table.

        Used by tests to prove rows are never leaked (lost from both sides)
        or double-assigned (present in the pool *and* a sketch slot) across
        insert/evict/rebalance cycles.
        """
        if not rows_partition(self._free_rows.rows, self.sketch.payloads, self.num_hot_rows):
            raise AssertionError("exclusive rows leaked, double-assigned or out of range")

    def memory_floats(self) -> int:
        """Hot table + shared table(s) + the HotSketch slots (§5.1.4 fairness)."""
        return int(self.hot_table.size + self._shared_table_floats() + self.sketch.memory_floats())

    # ------------------------------------------------------------------ #
    # Checkpointing (paper §4, "Fault Tolerance")
    # ------------------------------------------------------------------ #
    def _state_view(self) -> dict[str, np.ndarray]:
        # Every arena region, so subclasses with more tables (the
        # multi-level variant) checkpoint them too.
        state = {name: getattr(self, name) for name, _ in self._arena_regions()}
        state["free_rows"] = self._free_rows.rows
        state["hot_threshold"] = np.asarray(self.hot_threshold)
        state["step"] = np.asarray(self._step)
        return state

    def check_state(self, state: dict[str, np.ndarray]) -> None:
        """The fit rule, then the row partition: the checkpoint's free rows
        and sketch-assigned rows must partition the exclusive table, or
        :class:`~repro.errors.CheckpointLayoutError`.  Writes nothing."""
        super().check_state(state)
        free_rows = np.asarray(state["free_rows"], dtype=np.int64)
        if not rows_partition(free_rows, state["sketch.payloads"], self.num_hot_rows):
            raise CheckpointLayoutError(
                f"checkpoint free_rows and sketch.payloads do not partition the "
                f"{self.num_hot_rows} exclusive rows (one leaked, double-assigned or out of range)"
            )

    def _write_state(self, state: dict[str, np.ndarray]) -> None:
        for name, _ in self._arena_regions():
            getattr(self, name)[...] = state[name]
        self._free_rows = FreeRowPool(state["free_rows"])
        self.hot_threshold = float(state["hot_threshold"])
        self._step = int(state["step"])


class CafeStack:
    """The arrays one CAFE step touches: one layer's, or S shards' stacked.

    A stack of one is a :class:`CafeEmbedding`'s own sketch, arena and row
    optimizer; the layer's ``routes`` / ``gather`` / ``apply`` are the
    stack's.  A stack of ``S ≥ 2`` same-geometry layers (:meth:`stacked`)
    holds their sketch keys/scores/payloads ``(S·w, c)``, arena ``(S·A, d)``
    and row-optimizer state ``(S·A,)`` in one allocation each, every member
    keeping only views.  A step then runs once, with member ``k``'s buckets
    at ``k·w + b`` and rows at ``k·A + r`` — bit-identical to S steps, since
    every per-row and per-bucket operation is independent across members and
    the stable sorts keep each member's order.  Decay, threshold and
    migration stay per member, on the views (docs/store.md "Stacked shards").
    An id's member is a SplitMix64 hash of it under ``shard_seed``.

    A stack has a layer's table contract (``routes`` / ``gather`` / ``apply``
    / ``memory_floats`` and a routing token): a sharded store and its
    snapshots hold it where a one-shard store holds its backend.
    """

    def __init__(
        self,
        members: list,
        sketch: HotSketch,
        arena: np.ndarray,
        optimizer,
        shard_seed: int | None = None,
    ):
        self.members = members
        self.sketch = sketch
        self.arena = arena
        self.optimizer = optimizer
        #: Seed of the id -> member hash (``None`` for a stack of one).
        self.shard_seed = shard_seed
        self.rows_per = members[0]._arena.shape[0]
        self.buckets_per = members[0].sketch.num_buckets

    # ------------------------------------------------------------------ #
    # Building, copying and binding a stack of S ≥ 2
    # ------------------------------------------------------------------ #
    @staticmethod
    def can_stack(layers) -> bool:
        """≥ 2 plain CAFE layers with one geometry and row optimizer."""
        def geometry(layer):
            if type(layer) is not CafeEmbedding:
                return None
            return (layer.dim, layer.dtype, layer.num_hot_rows, layer.num_shared_rows,
                    layer.slots_per_bucket, layer.optimizer_name, layer.learning_rate)

        kinds = {geometry(layer) for layer in layers}
        return len(layers) >= 2 and len(kinds) == 1 and None not in kinds

    @classmethod
    def stacked(cls, members: list, shard_seed: int) -> "CafeStack":
        """Copy ``members``' state into fresh stacked arrays and rebind each
        member to its views, once (``members`` must pass :meth:`can_stack`);
        ids go to members by their hash under ``shard_seed``.  From here on
        every write to a member — a step's, a restore's — lands in the stack."""
        first, count = members[0], len(members)
        sketch = HotSketch(
            count * first.sketch.num_buckets, first.slots_per_bucket, seed=first.sketch.seed
        )
        arena = np.empty((count * first._arena.shape[0], first.dim), dtype=first.dtype)
        stack = cls(members, sketch, arena, first._new_row_optimizer(arena), int(shard_seed))
        for index in range(count):
            for view, array in zip(stack._views(index), stack._arrays(index)):
                view[...] = array
            stack._bind(index)
        return stack

    def __deepcopy__(self, memo) -> "CafeStack":
        """Privatise the whole stack in one copy (copy-on-write): the members
        are deep-copied with their views mapped straight onto the copies (a
        member-by-member deepcopy would copy the stacked arrays twice and
        unstack them)."""
        twin = copy.copy(self)
        twin.arena = self.arena.copy()
        twin.sketch = copy.copy(self.sketch)
        for name in ("keys", "scores", "payloads"):
            setattr(twin.sketch, name, getattr(self.sketch, name).copy())
        twin.optimizer = copy.copy(self.optimizer)
        twin.optimizer.state = {key: array.copy() for key, array in self.optimizer.state.items()}
        views = {
            id(old): new
            for index in range(len(self.members))
            for old, new in zip(self._arrays(index), twin._views(index))
        }
        twin.members = copy.deepcopy(self.members, views)
        return twin

    def _views(self, index: int) -> list[np.ndarray]:
        """Member ``index``'s slices of the stacked arrays, in :meth:`_arrays` order."""
        rows = slice(index * self.rows_per, (index + 1) * self.rows_per)
        buckets = slice(index * self.buckets_per, (index + 1) * self.buckets_per)
        sketch = self.sketch
        views = [self.arena[rows]]
        views += [sketch.keys[buckets], sketch.scores[buckets], sketch.payloads[buckets]]
        return views + [state[rows] for state in self.optimizer.state.values()]

    def _arrays(self, index: int) -> list[np.ndarray]:
        """The arrays member ``index`` holds now, in :meth:`_views` order."""
        member = self.members[index]
        arrays = [member._arena, member.sketch.keys, member.sketch.scores, member.sketch.payloads]
        return arrays + list(member._optimizer.state.values())

    def _bind(self, index: int) -> None:
        member = self.members[index]
        views = self._views(index)
        member._arena = views[0]
        member._bind_arena_views()
        member.sketch.keys, member.sketch.scores, member.sketch.payloads = views[1:4]
        member._optimizer.state = dict(zip(self.optimizer.state, views[4:]))

    # ------------------------------------------------------------------ #
    # The step
    # ------------------------------------------------------------------ #
    def routes(self, uids: np.ndarray) -> dict[str, np.ndarray]:
        """Routing of sorted unique ids; a stack of S ≥ 2 also routes each id
        to its member (``routes["shard"]``)."""
        # The first member's routing hooks serve the stack (S ≥ 2 members
        # share them).  One sketch probe per distinct id, whose results the
        # sketch insertion in apply reuses.
        layer = self.members[0]
        buckets = hash_to_bucket(uids, self.buckets_per, seed=layer.sketch.seed)
        shard = None
        if self.shard_seed is not None:
            shard = hash_to_range(uids, len(self.members), seed=self.shard_seed)
            buckets += shard * self.buckets_per
        found, slots = self.sketch.match(uids, buckets)
        arena_rows = np.where(found, self.sketch.payloads[buckets, slots], NO_PAYLOAD)
        hot_mask = arena_rows != NO_PAYLOAD  # hot payloads ARE arena rows (offset 0)
        cold = ~hot_mask
        routes = {
            "sketch_found": found,
            "sketch_buckets": buckets,
            "sketch_slots": slots,
            "hot_mask": hot_mask,
            "arena_rows": arena_rows,
        }
        routes.update(layer._shared_routes(uids[cold]))
        arena_rows[cold] = layer._shared_offset + routes["shared_rows"]
        if shard is not None:
            arena_rows += shard * self.rows_per
        # The scatter's inputs only: the sort over them waits for the first
        # apply that consumes the plan (RoutingPlan.scatter).
        routes["scatter_sources"], routes["scatter_rows"] = layer._scatter_entries(
            arena_rows, routes
        )
        if shard is not None:
            routes["shard"] = shard
        return routes

    def _routing_token(self) -> object:
        # A stacked plan routes through every member's sketch, so it is tied
        # to every member's own token.
        return tuple(member._routing_token() for member in self.members)

    def gather(self, uids: np.ndarray, routes: dict[str, np.ndarray]) -> np.ndarray:
        """Rows ``(U, dim)`` of the routed ids: one arena gather."""
        out = np.take(self.arena, routes["arena_rows"], axis=0)
        self.members[0]._lookup_fused_extra(out, routes)
        return out

    def memory_floats(self) -> int:
        return int(sum(member.memory_floats() for member in self.members))

    def apply(
        self, plan: RoutingPlan, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray
    ) -> None:
        """One step over the stack; only the members that owned an id
        advance their step."""
        routes = plan.routes
        # 1. Parameter update using the assignment that produced the forward
        #    pass: one segment-sum + optimizer scatter over the arena.
        sources = routes["scatter_sources"]
        values = grad_sums if sources is None else grad_sums[sources]
        scatter = plan.scatter()
        summed = scatter.sum(values)
        self.optimizer.fused_apply(self.arena, scatter.rows, summed)

        # 2. Sketch insertion, reusing the plan's locate results; SpaceSaving
        #    replacement may evict hot features.
        evictions = self.sketch.insert_routed(
            uids, scores, routes["sketch_found"], routes["sketch_buckets"], routes["sketch_slots"]
        )

        # 3. Per member: row release (in eviction order), then decay /
        #    threshold / migration.
        shard = routes.get("shard")
        if shard is None:
            self.members[0]._finish_step(evictions.payloads)
            return
        counts = np.bincount(shard, minlength=len(self.members))
        owners = evictions.buckets // self.buckets_per
        for index in np.flatnonzero(counts).tolist():
            member = self.members[index]
            member.sketch.total_insertions += int(counts[index])
            member._finish_step(evictions.payloads[owners == index])
