"""A stacked sharded CAFE store against independent per-shard oracles.

A ``ShardedEmbeddingStore`` over S ≥ 2 local plain-CAFE shards keeps their
state in one allocation per kind (``CafeStack``) and steps once over the
stack.  The state machine below drives a 2- or 4-shard store (sgd or
adagrad) through random interleavings of lookup, apply_gradients (empty and
repeated-id batches included), rebalance, snapshot and state_dict ->
load_state_dict.  After every rule it checks the store
against S independent ``CafeEmbedding`` oracles, each fed the ids that
``hash_to_range`` under the store's shard seed assigns it:

* lookups and state dicts are bit-equal;
* every snapshot taken keeps serving exactly what it served when taken;
* the aliasing invariant: every live shard array is a view into the stack,
  and a frozen (snapshot-held) shard shares no memory with the live stack.
"""

import copy

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.embeddings import create_embedding
from repro.embeddings.cafe import CafeStack
from repro.embeddings.plan import UniqueBatch, gradient_norms
from repro.store import ShardedEmbeddingStore
from repro.utils.hashing import hash_to_range

N, DIM, FIELDS = 3000, 4, 3
COMPRESSION = 4.0
PROBE = np.arange(0, N, 7)
#: Small enough that decay and migration both fire within a short run.
CAFE_KWARGS = dict(decay_interval=5, rebalance_interval=4)


def build_store(num_shards, optimizer, seed):
    return ShardedEmbeddingStore.build(
        "cafe",
        num_features=N,
        dim=DIM,
        num_shards=num_shards,
        compression_ratio=COMPRESSION,
        seed=seed,
        optimizer=optimizer,
        learning_rate=0.1,
        **CAFE_KWARGS,
    )


def build_oracles(num_shards, optimizer, seed):
    """The shards ``ShardedEmbeddingStore.build`` makes, as free-standing layers."""
    return [
        create_embedding(
            "cafe",
            num_features=N,
            dim=DIM,
            compression_ratio=COMPRESSION * num_shards,
            rng=np.random.default_rng(seed + 7919 * index),
            optimizer=optimizer,
            learning_rate=0.1,
            **CAFE_KWARGS,
        )
        for index in range(num_shards)
    ]


def make_batch(seed, rows):
    """Ids with a hot head (repeats, admissions, evictions) plus a tail."""
    rng = np.random.default_rng(seed)
    head = rng.integers(0, 40, size=(rows, FIELDS))
    tail = rng.integers(0, N, size=(rows, FIELDS))
    ids = np.where(rng.random((rows, FIELDS)) < 0.6, head, tail)
    grads = (rng.standard_normal((rows, FIELDS, DIM)) * 2.0).astype(np.float32)
    return ids, grads


def stack_arrays(stack):
    sketch = stack.sketch
    state = stack.optimizer.state.values()
    return [stack.arena, sketch.keys, sketch.scores, sketch.payloads, *state]


class StackedStoreMachine(RuleBasedStateMachine):
    @initialize(num_shards=st.sampled_from([2, 4]), optimizer=st.sampled_from(["sgd", "adagrad"]))
    def build(self, num_shards, optimizer):
        self.num_shards, self.optimizer = num_shards, optimizer
        self.store = build_store(num_shards, optimizer, seed=3)
        self.oracles = build_oracles(num_shards, optimizer, seed=3)
        self.steps = 0
        self.snapshots = []
        assert self.store.describe()["stacked"]

    # ------------------------------------------------------------------ #
    # The oracle side of a step
    # ------------------------------------------------------------------ #
    def partition(self, ids):
        """The batch's unique ids, and each oracle's (ascending) share of them."""
        batch = UniqueBatch.build(np.asarray(ids, dtype=np.int64), N)
        owner = hash_to_range(batch.uids, self.num_shards, seed=self.store._table.shard_seed)
        shares = [(shard, owner == shard) for shard in range(self.num_shards)]
        return batch, [(shard, mask) for shard, mask in shares if mask.any()]

    def oracle_lookup(self, ids):
        batch, shares = self.partition(ids)
        rows = np.empty((batch.uids.shape[0], DIM), dtype=self.store.dtype)
        for shard, mask in shares:
            rows[mask] = self.oracles[shard].lookup_unique(batch.uids[mask])
        return np.take(rows, batch.inverse, axis=0).reshape(batch.ids_shape + (DIM,))

    def oracle_apply(self, ids, grads):
        batch, shares = self.partition(ids)
        if not len(batch):
            return
        self.steps += 1
        flat = grads.reshape(len(batch), DIM)
        sums = batch.sum_per_id(flat)
        scores = batch.sum_per_id(gradient_norms(flat))
        for shard, mask in shares:
            self.oracles[shard].apply_unique(batch.uids[mask], sums[mask], scores[mask])

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #
    @rule(seed=st.integers(0, 2**16), rows=st.integers(1, 24))
    def lookup(self, seed, rows):
        ids, _ = make_batch(seed, rows)
        np.testing.assert_array_equal(self.store.lookup(ids), self.oracle_lookup(ids))

    @rule(seed=st.integers(0, 2**16), rows=st.integers(0, 24), looked_up=st.booleans())
    def apply_gradients(self, seed, rows, looked_up):
        ids, grads = make_batch(seed, rows)
        if looked_up:
            self.store.lookup(ids)
        self.store.apply_gradients(ids, grads)
        self.oracle_apply(ids, grads)

    @rule(seed=st.integers(0, 2**16))
    def apply_one_id_many_times(self, seed):
        ids = np.full((8, FIELDS), seed % 40)
        grads = np.random.default_rng(seed).standard_normal((8, FIELDS, DIM)).astype(np.float32)
        self.store.apply_gradients(ids, grads)
        self.oracle_apply(ids, grads)

    @precondition(lambda self: len(self.snapshots) < 3)
    @rule()
    def snapshot(self):
        view = self.store.snapshot()
        self.snapshots.append((view, view.lookup(PROBE).copy()))

    @rule(fresh=st.booleans())
    def checkpoint_roundtrip(self, fresh):
        state = self.store.state_dict()
        # A restore into a differently initialised store must come wholly
        # out of the state; into itself it must be a no-op.
        target = build_store(self.num_shards, self.optimizer, seed=99) if fresh else self.store
        target.load_state_dict(state)
        self.store = target

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    @invariant()
    def state_matches_the_oracles(self):
        state = self.store.state_dict()
        expected = {"num_shards": np.asarray(self.num_shards), "step": np.asarray(self.steps)}
        for index, oracle in enumerate(self.oracles):
            for key, value in oracle.state_dict().items():
                expected[f"shard{index}.{key}"] = value
        assert sorted(state) == sorted(expected)
        for key, value in expected.items():
            np.testing.assert_array_equal(state[key], value, err_msg=key)

    @invariant()
    def snapshots_never_change(self):
        for view, served in self.snapshots:
            np.testing.assert_array_equal(view.lookup(PROBE), served)

    @invariant()
    def live_shards_view_the_stack_and_frozen_ones_do_not(self):
        stack = self.store._table
        assert isinstance(stack, CafeStack) and tuple(stack.members) == self.store.shards
        stacked = stack_arrays(stack)
        for shard in self.store.shards:
            sketch = shard.sketch
            live = [shard._arena, shard.hot_table, shard.shared_table]
            live += [sketch.keys, sketch.scores, sketch.payloads]
            live += list(shard._optimizer.state.values())
            for array in live:
                assert any(np.shares_memory(array, base) for base in stacked)
        live_shards = {id(shard) for shard in self.store.shards}
        for view, _ in self.snapshots:
            for shard in view.table.members:
                if id(shard) in live_shards:
                    continue  # no write since this snapshot: still shared
                assert not shard._arena.flags.writeable
                for base in stacked:
                    assert not np.shares_memory(shard._arena, base)
                    assert not np.shares_memory(shard.sketch.scores, base)


StackedStoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestStackedStore = StackedStoreMachine.TestCase


# --------------------------------------------------------------------------- #
# Which stores stack, and the freeze that backs copy-on-write
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "num_shards, method, kwargs, stacked",
    [
        (2, "cafe", {"optimizer": "sgd"}, True),
        (3, "cafe", {"optimizer": "sgd"}, True),
        (4, "cafe", {"optimizer": "adagrad"}, True),
        (1, "cafe", {}, False),  # the store delegates to its one shard
        (1, "cafe_ml", {}, False),
        (1, "hash", {}, False),
    ],
)
def test_which_stores_stack(num_shards, method, kwargs, stacked):
    store = ShardedEmbeddingStore.build(
        method, num_features=N, dim=DIM, num_shards=num_shards,
        compression_ratio=COMPRESSION, seed=0, **kwargs,
    )
    assert store.describe()["stacked"] is stacked


def test_snapshot_freezes_the_stack_and_the_next_write_copies_it_once():
    store = build_store(4, "adagrad", seed=3)
    ids, grads = make_batch(0, 16)
    store.apply_gradients(ids, grads)
    store.snapshot()
    frozen = store._table
    for base in stack_arrays(frozen):
        assert not base.flags.writeable
    # A write that skipped copy-on-write raises instead of corrupting the
    # snapshot (the shards' views alone being read-only would not stop it).
    with pytest.raises(ValueError, match="read-only"):
        frozen.arena[0] += 1.0
    store.apply_gradients(ids, grads)
    assert store._table is not frozen and store.cow_copies == 1
    assert all(base.flags.writeable for base in stack_arrays(store._table))


@pytest.mark.parametrize("num_shards", [2, 3, 4])
def test_a_stacked_snapshot_keeps_serving_what_the_store_served(num_shards):
    """The snapshot reads its frozen stack through the store's own routing:
    bit-equal to the live store when taken, and unchanged after training."""
    store = build_store(num_shards, "adagrad", seed=5)
    for seed in range(6):
        store.apply_gradients(*make_batch(seed, 24))
    probe = np.concatenate([PROBE, PROBE[:51]]).reshape(-1, FIELDS)  # repeats too
    served = store.lookup(probe)
    view = store.snapshot()
    assert view.table is store._table
    np.testing.assert_array_equal(view.lookup(probe), served)
    for seed in range(6, 12):
        store.apply_gradients(*make_batch(seed, 24))
    assert not np.array_equal(store.lookup(probe), served)
    np.testing.assert_array_equal(view.lookup(probe), served)
    assert view.memory_floats() == store.memory_floats()


@pytest.mark.parametrize("trained", [True, False], ids=["trained", "never-stepped"])
def test_a_restore_into_a_stack_happens_in_place(trained, tmp_path):
    """A restore writes through the shards' views: every array a shard holds
    (arena, sketch, row-optimizer state) is the same object afterwards, so
    the shards still view the stack and the stack is not rebuilt."""
    source = build_store(4, "adagrad", seed=3)
    for seed in range(5):
        source.apply_gradients(*make_batch(seed, 24))
    np.savez(tmp_path / "sparse.npz", **source.state_dict())
    target = build_store(4, "adagrad", seed=9)
    for seed in range(5, 8 if trained else 5):
        target.apply_gradients(*make_batch(seed, 24))

    def held(store):
        return [
            (shard._arena, shard.sketch.keys, shard.sketch.scores, shard.sketch.payloads,
             *shard._optimizer.state.values())
            for shard in store.shards
        ]

    stack, before = target._table, held(target)
    with np.load(tmp_path / "sparse.npz") as checkpoint:
        target.load_state_dict(dict(checkpoint))
    assert target._table is stack
    for arrays, expected in zip(held(target), before):
        assert len(arrays) == 5
        assert all(array is old for array, old in zip(arrays, expected))
        for array, base in zip(arrays, stack_arrays(stack)):
            assert np.shares_memory(array, base)
    restored = target.state_dict()
    for key, value in source.state_dict().items():
        np.testing.assert_array_equal(restored[key], value, err_msg=key)


@pytest.mark.parametrize("num_shards", [1, 3])
def test_a_deepcopy_of_a_stack_is_one_private_copy(num_shards):
    """``copy.deepcopy`` of a stack of S ≥ 2, or of a layer's stack of one,
    gives one copy that shares no memory and reads the same rows."""
    store = build_store(num_shards, "adagrad", seed=2)
    for seed in range(3):
        store.apply_gradients(*make_batch(seed, 24))
    stack = store._table if num_shards > 1 else store._table._solo()
    uids = np.unique(PROBE)
    first, second = copy.deepcopy([stack, stack])
    assert first is second
    assert not any(np.shares_memory(first.arena, base) for base in stack_arrays(stack))
    np.testing.assert_array_equal(
        first.gather(uids, first.routes(uids)), stack.gather(uids, stack.routes(uids))
    )


@pytest.mark.parametrize("num_shards", [2, 4])
def test_a_stacked_sketch_decays_by_its_shards_factor(num_shards):
    """The stacked sketch carries no decay of its own: each shard decays its
    slice by the store's ``decay`` on the shard's interval."""

    def scores_after_one_step(decay):
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=N, dim=DIM, num_shards=num_shards,
            compression_ratio=COMPRESSION, seed=2, decay=decay, decay_interval=1,
        )
        store.apply_gradients(*make_batch(0, 64))
        return store._table.sketch.scores.copy()

    kept = scores_after_one_step(1.0)
    assert np.count_nonzero(kept) > num_shards
    np.testing.assert_array_equal(scores_after_one_step(0.5), kept * 0.5)
