"""The unique-first embedding step: one sort, two hooks, named errors.

``CompressedEmbedding.lookup`` / ``apply_gradients`` deduplicate the batch
once at the outermost store; shards and backends only see sorted unique ids.
Pinned here:

* a call-count guard: one position-axis sort per step for 1, 2 and 4 shards,
  every other sort over at most ``U`` elements, one range check and one
  ``einsum`` per step (not one per shard);
* a slow position-order oracle (dicts of rows, a list-of-slots HotSketch,
  per-position accumulation in batch order) that cafe / hash / cafe_ml stay
  within 1e-5 of on every looked-up value, with the same hot set;
* the boundary: empty batches are no-ops on every store, and NaN/inf
  gradients, non-integer ids and out-of-range ids raise named
  ``repro.errors`` before any shard is touched;
* the wire: shards receive ascending distinct ids, and the write log still
  names exactly the rows the scatter wrote.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.embeddings import create_embedding
from repro.embeddings.plan import UniqueBatch
from repro.errors import (
    BadBatchError,
    IdOutOfRangeError,
    NonFiniteGradientError,
    NonIntegerIdError,
)
from repro.store import ShardedEmbeddingStore, TableGroupStore
from repro.utils.hashing import hash_to_range

N, DIM = 2000, 4


def build_store(method, num_shards, optimizer="sgd", compression_ratio=4.0, **kwargs):
    return ShardedEmbeddingStore.build(
        method,
        num_features=N,
        dim=DIM,
        num_shards=num_shards,
        compression_ratio=compression_ratio,
        seed=0,
        optimizer=optimizer,
        learning_rate=0.1,
        **kwargs,
    )


def assert_states_equal(before, after):
    assert before.keys() == after.keys()
    for key in before:
        assert np.array_equal(before[key], after[key]), key


# --------------------------------------------------------------------------- #
# UniqueBatch
# --------------------------------------------------------------------------- #
class TestUniqueBatch:
    def test_arrays_describe_the_batch(self):
        ids = np.asarray([[7, 3, 7], [3, 9, 7]])
        batch = UniqueBatch.build(ids, 10)
        assert batch.uids.tolist() == [3, 7, 9]
        assert np.array_equal(batch.uids[batch.inverse], ids.reshape(-1))
        # Stable: each id's positions stay in batch order.
        assert batch.order.tolist() == [1, 3, 0, 2, 5, 4]
        assert batch.starts.tolist() == [0, 2, 5]
        assert batch.counts().tolist() == [2, 3, 1]
        assert batch.matches(ids) and not batch.matches(ids.reshape(-1))

    @pytest.mark.parametrize("shape", [(40, 5), (1,), (64,)])
    def test_sum_per_id_equals_a_position_loop(self, shape):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 30, size=shape)
        values = rng.normal(size=(ids.size, DIM)).astype(np.float32)
        batch = UniqueBatch.build(ids, 30)
        expected = {}
        for uid, row in zip(ids.reshape(-1).tolist(), values):
            expected[uid] = expected[uid] + row if uid in expected else row.copy()
        summed = batch.sum_per_id(values)
        assert summed.shape == (len(expected), DIM)
        for uid, row in zip(batch.uids.tolist(), summed):
            # reduceat sums long runs pairwise, the loop sequentially.
            assert np.allclose(row, expected[uid], rtol=0, atol=1e-5)
        assert np.array_equal(
            summed, np.add.reduceat(values[batch.order], batch.starts, axis=0)
        )


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trailing", [(), (DIM,)])
    def test_sum_per_id_association_is_pinned(self, dtype, trailing):
        """The docstring's contract on a 3-row and a 9-row run: the first row
        plus the sum of the rest — the rest in order while it is at most 7
        rows, numpy's eight-accumulator pairwise tree from 8 rows on.
        ``big`` absorbs a 1 added to it, which tells the three candidate
        associations apart (left-to-right would give 0 and 0)."""
        big = 2.0 ** 60
        runs = {
            2: [1.0, big, -big],                                  # 1 + (big - big) = 1
            7: [1.0] + [1.0] * 6 + [big, -big],                   # 1 + ((1+1)+(1+1))+((1+1)+(big-big)) = 7
            4: [0.5, 0.25],
        }
        ids = np.asarray([7, 2, 7, 4, 7, 2, 7, 7, 4, 7, 2, 7, 7, 7])
        cursor = {uid: iter(rows) for uid, rows in runs.items()}
        column = np.asarray([next(cursor[uid]) for uid in ids.tolist()], dtype=dtype)
        values = column if not trailing else np.repeat(column[:, None], DIM, axis=1)
        batch = UniqueBatch.build(ids, 10)
        assert batch.uids.tolist() == [2, 4, 7] and batch.counts().tolist() == [3, 2, 9]
        summed = batch.sum_per_id(values)
        assert summed.dtype == dtype and summed.shape == (3,) + trailing
        assert np.all(summed[0] == 1.0)
        assert np.all(summed[1] == 0.75)
        assert np.all(summed[2] == 7.0)
        # The same rows left to right, and first + the rest left to right:
        left_to_right = np.asarray(runs[7], dtype=dtype).cumsum()[-1]
        assert left_to_right == 0.0
        assert dtype(1.0) + np.asarray(runs[7][1:], dtype=dtype).cumsum()[-1] == 1.0


# --------------------------------------------------------------------------- #
# (a) Call counts: the position axis is sorted once, whatever the shard count
# --------------------------------------------------------------------------- #
def profile_step(store, ids, grads):
    """Sizes of every sort and counts of the per-step checks in one
    lookup + apply_gradients."""
    sorts: list[int] = []
    calls: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "c_call":
            name = arg.__name__
            if name in ("sort", "argsort") and isinstance(
                getattr(arg, "__self__", None), np.ndarray
            ):
                sorts.append(int(arg.__self__.shape[0]))
            elif name == "c_einsum":
                calls["einsum"] += 1
        elif event == "call" and frame.f_code.co_name in ("check_id_range", "build"):
            if "/repro/embeddings/plan.py" in frame.f_code.co_filename.replace("\\", "/"):
                calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        store.lookup(ids)
        store.apply_gradients(ids, grads)
    finally:
        sys.setprofile(previous)
    return sorts, calls


class TestCallCounts:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_one_position_axis_sort_per_step(self, num_shards):
        rng = np.random.default_rng(3)
        store = build_store("cafe", num_shards, optimizer="adagrad")
        for _ in range(3):  # past the first-step rebalance
            ids = rng.integers(0, 300, size=(64, 6))
            grads = rng.normal(size=ids.shape + (DIM,)).astype(np.float32)
            store.lookup(ids)
            store.apply_gradients(ids, grads)
        ids = rng.integers(0, 300, size=(64, 6))
        grads = rng.normal(size=ids.shape + (DIM,)).astype(np.float32)
        positions, unique = ids.size, np.unique(ids).size
        assert unique < positions
        sorts, calls = profile_step(store, ids, grads)
        assert sorts.count(positions) == 1, sorts
        assert all(size <= unique for size in sorts if size != positions), sorts
        # One dedup, one range check and one norm einsum per step — the
        # apply half reuses lookup's batch, and no shard repeats any of them.
        assert calls == {"build": 1, "check_id_range": 1, "einsum": 1}


# --------------------------------------------------------------------------- #
# (b) The slow position-order oracle
# --------------------------------------------------------------------------- #
class SlowRows:
    """Dict-of-rows tables with a per-row SGD / row-wise Adagrad step."""

    def __init__(self, optimizer, lr):
        self.optimizer, self.lr = optimizer, np.float32(lr)
        self.rows: dict = {}
        self.accumulator: dict = {}

    def step(self, summed: dict) -> None:
        for key, grad in summed.items():
            if self.optimizer == "sgd":
                self.rows[key] = self.rows[key] - self.lr * grad
                continue
            state = self.accumulator.get(key, np.float32(0)) + np.mean(grad * grad)
            self.accumulator[key] = state
            self.rows[key] = self.rows[key] - self.lr / (np.sqrt(state) + np.float32(1e-10)) * grad


class SlowHash(SlowRows):
    """Oracle of ``HashEmbedding``: one hashed row per id."""

    def __init__(self, shard, optimizer):
        super().__init__(optimizer, shard.learning_rate)
        self.num_rows, self.seed = shard.num_rows, shard.hash_seed
        self.rows = {row: shard.table[row].copy() for row in range(self.num_rows)}

    def destinations(self, uid):
        return [int(hash_to_range(uid, self.num_rows, seed=self.seed))]

    def hot_set(self):
        return set()

    def finish_step(self, scores):
        pass


class SlowFull(SlowHash):
    """Oracle of ``FullEmbedding``: the id is the row."""

    def __init__(self, shard, optimizer):
        SlowRows.__init__(self, optimizer, shard.learning_rate)
        self.rows = {row: shard.table[row].copy() for row in range(shard.table.shape[0])}

    def destinations(self, uid):
        return [uid]


class SlowCafe(SlowRows):
    """Oracle of ``CafeEmbedding`` / ``CafeMultiLevelEmbedding``.

    The sketch is a list of buckets, each a list of ``[key, score, hot]``
    slots; hot rows are a dict keyed by feature id, so there is no row pool
    to mirror — only the number of free exclusive rows.
    """

    def __init__(self, shard, optimizer):
        super().__init__(optimizer, shard.learning_rate)
        self.shard_config = shard
        self.buckets = [[None] * shard.slots_per_bucket for _ in range(shard.num_hot_rows)]
        self.free = shard.num_hot_rows
        self.threshold = shard.hot_threshold
        self.steps = 0
        self.secondary_rows = getattr(shard, "num_secondary_rows", 0)
        for row in range(shard.num_shared_rows):
            self.rows["shared", row] = shard.shared_table[row].copy()
        for row in range(self.secondary_rows):
            self.rows["secondary", row] = shard.secondary_table[row].copy()

    # -- sketch ------------------------------------------------------------ #
    def slot_of(self, uid):
        config = self.shard_config
        bucket = self.buckets[int(hash_to_range(uid, config.num_hot_rows, seed=config.sketch.seed))]
        for slot in bucket:
            if slot is not None and slot[0] == uid:
                return bucket, slot
        return bucket, None

    def occupied(self):
        return [slot for bucket in self.buckets for slot in bucket if slot is not None]

    def hot_set(self):
        return {slot[0] for slot in self.occupied() if slot[2]}

    def release(self, slot):
        slot[2] = False
        self.free += 1
        del self.rows["hot", slot[0]]
        self.accumulator.pop(("hot", slot[0]), None)

    # -- routing ------------------------------------------------------------ #
    def shared_destinations(self, uid, slot):
        config = self.shard_config
        found = [("shared", int(hash_to_range(uid, config.num_shared_rows, seed=config.hash_seed)))]
        score = slot[1] if slot is not None else 0.0
        if self.secondary_rows and score >= self.threshold * config.medium_fraction:
            row = int(hash_to_range(uid, self.secondary_rows, seed=config.hash_seed + 1))
            found.append(("secondary", row))
        return found

    def destinations(self, uid):
        _, slot = self.slot_of(uid)
        if slot is not None and slot[2]:
            return [("hot", uid)]
        return self.shared_destinations(uid, slot)

    # -- sketch insertion + periodic maintenance ----------------------------- #
    def finish_step(self, scores):
        config = self.shard_config
        located = {uid: self.slot_of(uid) for uid in scores}
        for uid in sorted(scores):  # recorded keys first ...
            if located[uid][1] is not None:
                located[uid][1][1] += scores[uid]
        for uid in sorted(scores):  # ... then misses, ascending inside a bucket
            bucket, slot = located[uid]
            if slot is not None:
                continue
            if None in bucket:
                bucket[bucket.index(None)] = [uid, scores[uid], False]
                continue
            victim = min(range(len(bucket)), key=lambda index: bucket[index][1])
            if bucket[victim][2]:
                self.release(bucket[victim])
            bucket[victim] = [uid, bucket[victim][1] + scores[uid], False]
        self.steps += 1
        if config.decay < 1.0 and self.steps % config.decay_interval == 0:
            for slot in self.occupied():
                slot[1] *= config.decay
        if self.steps % config.rebalance_interval == 0 or self.steps == 1:
            self.rebalance()

    def rebalance(self):
        config = self.shard_config
        recorded = sorted((slot[1] for slot in self.occupied()), reverse=True)
        if recorded and config.adaptive_threshold:
            kth = recorded[min(config.num_hot_rows, len(recorded)) - 1]
            if kth > 0:
                self.threshold = kth
        for slot in self.occupied():
            if slot[2] and slot[1] < self.threshold / config.hysteresis:
                self.release(slot)
        candidates = [s for s in self.occupied() if not s[2] and s[1] >= self.threshold]
        candidates.sort(key=lambda slot: -slot[1])
        promoted = candidates[: self.free]
        values = [
            sum(self.rows[dest] for dest in self.shared_destinations(slot[0], slot))
            for slot in promoted
        ]
        for slot, value in zip(promoted, values):
            slot[2] = True
            self.free -= 1
            self.rows["hot", slot[0]] = value.copy()


class SlowStore:
    """Per-position reference of a (sharded) store: python loops only."""

    def __init__(self, store, optimizer):
        oracles = {"HashEmbedding": SlowHash, "FullEmbedding": SlowFull}
        oracle = oracles.get(type(store.shards[0]).__name__, SlowCafe)
        self.shards = [oracle(shard, optimizer) for shard in store.shards]
        self.shard_seed = store.shard_seed

    def shard_of(self, uid):
        if len(self.shards) == 1:
            return self.shards[0]
        return self.shards[int(hash_to_range(uid, len(self.shards), seed=self.shard_seed))]

    def lookup(self, ids):
        out = np.empty(ids.shape + (DIM,), dtype=np.float32)
        for index, uid in np.ndenumerate(ids):
            shard = self.shard_of(int(uid))
            out[index] = sum(shard.rows[dest] for dest in shard.destinations(int(uid)))
        return out

    def apply_gradients(self, ids, grads):
        summed = {id(shard): {} for shard in self.shards}
        scores = {id(shard): {} for shard in self.shards}
        for index, uid in np.ndenumerate(ids):  # batch order
            uid, grad = int(uid), grads[index]
            shard = self.shard_of(uid)
            for dest in shard.destinations(uid):
                rows = summed[id(shard)]
                rows[dest] = rows[dest] + grad if dest in rows else grad.copy()
            norm = float(np.sqrt(np.sum(grad * grad, dtype=np.float32)))
            scores[id(shard)][uid] = scores[id(shard)].get(uid, 0.0) + norm
        for shard in self.shards:
            if scores[id(shard)]:  # a shard with no ids in the batch takes no step
                shard.step(summed[id(shard)])
                shard.finish_step(scores[id(shard)])

    def hot_set(self):
        return set().union(*(shard.hot_set() for shard in self.shards))


def library_hot_set(store):
    hot = set()
    for shard in store.shards:
        sketch = getattr(shard, "sketch", None)
        if sketch is not None:
            hot.update(sketch.keys[sketch.payloads != -1].tolist())
    return hot


def drifting_batches(steps, batch, fields, seed):
    """Zipf-skewed ids whose popularity ranking rotates every 60 steps."""
    rng = np.random.default_rng(seed)
    ranking = rng.permutation(N)
    for step in range(steps):
        if step and step % 60 == 0:
            moved = rng.choice(N, size=N // 5, replace=False)
            ranking[moved] = ranking[rng.permutation(moved)]
        ranks = np.minimum(rng.zipf(1.3, size=(batch, fields)) - 1, N - 1)
        grads = rng.normal(scale=0.5, size=(batch, fields, DIM)).astype(np.float32)
        yield ranking[ranks], grads


class TestPositionOrderOracle:
    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
    @pytest.mark.parametrize("method", ["cafe", "hash", "cafe_ml", "full"])
    def test_store_tracks_the_slow_oracle(self, method, optimizer, num_shards):
        sketched = method in ("cafe", "cafe_ml")
        extra = {"decay_interval": 50, "rebalance_interval": 10} if sketched else {}
        store = build_store(method, num_shards, optimizer=optimizer, **extra)
        oracle = SlowStore(store, optimizer)
        worst = 0.0
        for ids, grads in drifting_batches(300, batch=16, fields=4, seed=11):
            looked_up = store.lookup(ids)
            worst = max(worst, float(np.abs(looked_up - oracle.lookup(ids)).max()))
            store.apply_gradients(ids, grads)
            oracle.apply_gradients(ids, grads)
        assert worst <= 1e-5, worst
        ours, theirs = library_hot_set(store), oracle.hot_set()
        if sketched:
            assert theirs, "the workload never promoted anything"
            assert len(ours & theirs) / len(ours | theirs) >= 0.99

    def test_cafe_trains_under_sketched_adagrad(self):
        """No oracle for the sketched accumulator: rows stay finite and the
        exclusive rows stay partitioned."""
        store = build_store(
            "cafe", 1, optimizer="sketched_adagrad[frac=0.25]", rebalance_interval=10
        )
        for ids, grads in drifting_batches(120, batch=16, fields=4, seed=13):
            store.lookup(ids)
            store.apply_gradients(ids, grads)
        (shard,) = store.shards
        assert np.isfinite(shard._arena).all()
        assert shard.migrations_in > 0
        shard.check_row_invariants()

    @pytest.mark.parametrize(
        "ids",
        [
            np.full((8, 3), 41),  # every position one id
            np.arange(24).reshape(8, 3) * 7,  # duplicate-free
            np.asarray([1234]),  # a single position
        ],
        ids=["one-id", "duplicate-free", "single-position"],
    )
    def test_edge_batches(self, ids):
        rng = np.random.default_rng(5)
        store = build_store("cafe", 4, optimizer="adagrad", rebalance_interval=2)
        oracle = SlowStore(store, "adagrad")
        for _ in range(6):
            grads = rng.normal(size=ids.shape + (DIM,)).astype(np.float32)
            assert np.abs(store.lookup(ids) - oracle.lookup(ids)).max() <= 1e-5
            store.apply_gradients(ids, grads)
            oracle.apply_gradients(ids, grads)
        assert library_hot_set(store) == oracle.hot_set()


# --------------------------------------------------------------------------- #
# The boundary: empty batches and named errors
# --------------------------------------------------------------------------- #
#: ``(method, build kwargs, sharded?)`` — Q-R, AdaEmbed and MDE have memory
#: floors the per-shard budget of a 4-shard store falls below at this size.
BACKENDS = [
    ("cafe", {}, True),
    ("cafe_ml", {}, True),
    ("hash", {}, True),
    ("full", {}, True),
    ("qr", {}, False),
    ("adaembed", {"compression_ratio": 1.5}, False),
    ("mde", {"compression_ratio": 1.5, "field_cardinalities": [800, 600, 400, 200]}, False),
]


class TestEmptyBatch:
    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("method,extra,sharded", BACKENDS, ids=[b[0] for b in BACKENDS])
    def test_empty_batch_is_a_noop_on_every_backend(self, method, extra, sharded, num_shards):
        if num_shards > 1 and not sharded:
            pytest.skip(f"{method} cannot reach the per-shard compression ratio")
        store = build_store(method, num_shards, **extra)
        # The float dtype of np.empty is fine: there is nothing to truncate.
        assert store.lookup(np.empty((0, 3))).shape == (0, 3, DIM)
        store.apply_gradients(np.empty((0, 3)), np.empty((0, 3, DIM)))
        assert store.step() == 0
        assert all(shard.step() == 0 for shard in store.shards)

    @pytest.mark.parametrize("method", ["cafe", "cafe_ml", "hash", "full"])
    def test_empty_batch_on_the_sharded_store(self, method):
        store = build_store(method, 4)
        before = store.state_dict()
        assert store.lookup(np.empty((0,), dtype=np.int64)).shape == (0, DIM)
        store.apply_gradients(np.empty((0, 2), dtype=np.int64), np.empty((0, 2, DIM)))
        assert store.step() == 0
        assert_states_equal(before, store.state_dict())

    def test_quantized_and_snapshot(self):
        from repro.embeddings import QuantizedEmbedding

        quantized = QuantizedEmbedding(create_embedding("hash", N, DIM, 4.0, rng=0))
        assert quantized.lookup(np.empty((0, 2), dtype=np.int64)).shape == (0, 2, DIM)
        quantized.apply_gradients(np.empty((0,), dtype=np.int64), np.empty((0, DIM)))
        assert quantized.step() == 0
        snapshot = build_store("cafe", 4).snapshot()
        assert snapshot.lookup(np.empty((0, 5), dtype=np.int64)).shape == (0, 5, DIM)


class TestNamedErrors:
    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_mutates_nothing(self, bad, num_shards):
        rng = np.random.default_rng(2)
        store = build_store("cafe", num_shards, optimizer="adagrad")
        ids = rng.integers(0, N, size=(16, 4))
        grads = rng.normal(size=ids.shape + (DIM,)).astype(np.float32)
        store.lookup(ids)
        store.apply_gradients(ids, grads)
        before, steps = store.state_dict(), store.step()
        grads[3, 1, 2] = bad
        store.lookup(ids)
        with pytest.raises(NonFiniteGradientError, match="NaN or inf"):
            store.apply_gradients(ids, grads)
        assert store.step() == steps
        assert_states_equal(before, store.state_dict())
        assert all(np.isfinite(shard.sketch.scores).all() for shard in store.shards)

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_non_integer_ids_are_refused_not_truncated(self, num_shards):
        store = build_store("hash", num_shards)
        with pytest.raises(NonIntegerIdError, match="float64"):
            store.lookup(np.asarray([1.5, 2.0]))
        with pytest.raises(NonIntegerIdError):
            store.apply_gradients(np.asarray([[1.0]]), np.zeros((1, 1, DIM)))
        with pytest.raises(NonIntegerIdError):
            store.snapshot().lookup(np.asarray([True, False]))
        # Any integer dtype is fine, as are plain lists of ints.
        assert store.lookup(np.asarray([1, 2], dtype=np.int32)).shape == (2, DIM)
        assert store.lookup([[3, 4]]).shape == (1, 2, DIM)

    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("bad_id", [-1, N])
    def test_out_of_range_ids(self, bad_id, num_shards):
        store = build_store("cafe", num_shards)
        ids = np.asarray([[0, bad_id, 5]])
        with pytest.raises(IdOutOfRangeError, match=rf"\[0, {N}\)"):
            store.lookup(ids)
        with pytest.raises(IdOutOfRangeError):
            store.apply_gradients(ids, np.zeros(ids.shape + (DIM,)))
        with pytest.raises(IdOutOfRangeError):
            store.snapshot().lookup(ids)
        assert store.step() == 0

    def test_errors_are_value_errors_raised_once_at_the_outermost_store(self, monkeypatch):
        for error in (NonFiniteGradientError, NonIntegerIdError, IdOutOfRangeError):
            assert issubclass(error, BadBatchError) and issubclass(error, ValueError)
        store = build_store("cafe", 4)

        def unreachable(*args, **kwargs):
            raise AssertionError("a shard was touched")

        for shard in store.shards:
            monkeypatch.setattr(shard, "lookup_unique", unreachable)
            monkeypatch.setattr(shard, "apply_unique", unreachable)
        with pytest.raises(IdOutOfRangeError):
            store.lookup(np.asarray([N + 3]))
        with pytest.raises(NonFiniteGradientError):
            store.apply_gradients(np.asarray([3]), np.full((1, DIM), np.nan))

    def test_table_group_store_refuses_before_any_group(self):
        from repro.data.schema import DatasetSchema, FieldSchema

        schema = DatasetSchema(
            name="mixed",
            fields=[FieldSchema("tiny", 20), FieldSchema("big", 600)],
            num_numerical=0,
            embedding_dim=DIM,
        )
        store = TableGroupStore.from_schema(schema, spec="full:tiny,hash[cr=4]:rest", seed=0)
        ids = np.asarray([[3, 25], [7, 400]])
        before = store.state_dict()
        grads = np.zeros(ids.shape + (DIM,), dtype=np.float32)
        grads[1, 1, 0] = np.nan  # the *last* group's column
        with pytest.raises(NonFiniteGradientError):
            store.apply_gradients(ids, grads)
        assert_states_equal(before, store.state_dict())
        with pytest.raises(IdOutOfRangeError):
            store.lookup(np.asarray([[3, 620]]))
        with pytest.raises(NonIntegerIdError):
            store.lookup(np.asarray([[3.0, 25.0]]))


# --------------------------------------------------------------------------- #
# (c) The wire: what a shard receives, and what the write log records
# --------------------------------------------------------------------------- #
class TestWire:
    def test_shards_receive_ascending_distinct_ids(self, monkeypatch):
        # Plain CAFE shards are stacked and step in one pass with no
        # per-shard wire; cafe_ml always fans out.
        store = build_store("cafe_ml", 4)
        received = []
        for shard in store.shards:
            original = shard.apply_unique

            def spy(uids, grad_sums, scores, original=original):
                received.append((uids.copy(), grad_sums.copy(), scores.copy()))
                original(uids, grad_sums, scores)

            monkeypatch.setattr(shard, "apply_unique", spy)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 200, size=(32, 5))
        grads = rng.normal(size=ids.shape + (DIM,)).astype(np.float32)
        store.lookup(ids)
        store.apply_gradients(ids, grads)
        assert 1 < len(received) <= 4
        seen = np.concatenate([uids for uids, _, _ in received])
        assert np.array_equal(np.sort(seen), np.unique(ids))
        for uids, grad_sums, scores in received:
            assert np.all(np.diff(uids) > 0)
            assert grad_sums.shape == (uids.size, DIM) and grad_sums.dtype == store.dtype
            assert scores.shape == (uids.size,) and scores.dtype == np.float64
        flat_ids, flat = ids.reshape(-1), grads.reshape(-1, DIM)
        norms = np.sqrt(np.einsum("ij,ij->i", flat, flat)).astype(np.float64)
        for uids, grad_sums, scores in received:
            for uid, row, score in zip(uids, grad_sums, scores):
                mask = flat_ids == uid
                assert np.allclose(row, flat[mask].sum(axis=0), atol=1e-5)
                assert score == pytest.approx(norms[mask].sum())
        unique = np.unique(ids).size
        assert store.executor.stats.grad_bytes_per_step == unique * (8 + 4 * DIM + 8)

    @pytest.mark.parametrize("method", ["hash", "full"])
    def test_write_log_names_exactly_the_written_rows(self, method):
        store = build_store(method, 4, optimizer="adagrad")
        assert store.enable_write_log()
        rng = np.random.default_rng(6)
        tables = [shard.table.copy() for shard in store.shards]
        for _ in range(3):
            ids = rng.integers(0, N, size=(16, 4))
            # Strictly positive gradients: every touched row really changes.
            grads = rng.uniform(0.1, 1.0, size=ids.shape + (DIM,)).astype(np.float32)
            store.lookup(ids)
            store.apply_gradients(ids, grads)
        drained = store.drain_write_log()
        for shard, before, rows in zip(store.shards, tables, drained):
            changed = np.flatnonzero(np.any(shard.table != before, axis=1))
            assert np.array_equal(rows, changed)
        assert all(rows.size == 0 for rows in store.drain_write_log())

    def test_use_frequency_scores_are_lookup_counts(self):
        store = build_store("cafe", 2, use_frequency=True)
        assert store.use_frequency
        ids = np.asarray([[5, 5, 9], [5, 9, 11]])
        store.apply_gradients(ids, np.ones(ids.shape + (DIM,), dtype=np.float32))
        # The importance each id reached its shard's sketch with is its count.
        scores = store.merged_sketch().query(np.asarray([5, 9, 11]))
        assert scores.tolist() == [3.0, 2.0, 1.0]
