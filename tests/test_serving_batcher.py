"""The one micro-batcher: differential against the queue code it replaced.

``ReferenceMicroBatcher`` below is the request queue ``ServingEngine`` and
``Replica`` each carried a copy of until PR 23 (three deques, a
``np.concatenate`` of the queued arrays per flush, a float64 round trip of
``numerical``), kept verbatim as the oracle.  The block-based
:class:`~repro.serving.batcher.MicroBatcher` must group requests into the
same micro-batches, leave every handle in the same done-state after every
call and return bit-equal replies — through ``ServingEngine`` and through
``ReplicaSet`` — and must refuse a malformed request alone, at ``submit``,
which the old code could not.
"""

import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerViolation
from repro.errors import (
    BadBatchError,
    IdOutOfRangeError,
    MalformedRequestError,
    NonIntegerIdError,
)
from repro.models.base import ServedModel
from repro.models.dlrm import DLRM
from repro.serving import PendingPrediction, ReplicaSet, ReplicaTier, ServingEngine
from repro.serving.batcher import MicroBatcher
from repro.store import ShardedEmbeddingStore

DIM = 8
NUM_FEATURES = 600
FIELDS = 3
NUMERICAL = 2
POOL = 512


class ReferenceMicroBatcher:
    """The deleted per-class queue, verbatim, over ``model_of()``'s model."""

    def __init__(self, model_of, max_batch_size):
        self.model_of = model_of
        self.max_batch_size = int(max_batch_size)
        self._pending = deque()
        self._pending_categorical = deque()
        self._pending_numerical = deque()
        self._pending_rows = 0
        self.micro_batches = 0
        self.requests_served = 0
        self.rows_served = 0

    def submit(self, categorical, numerical=None):
        categorical = np.asarray(categorical, dtype=np.int64)
        if categorical.ndim == 1:
            categorical = categorical[None, :]
        if numerical is not None:
            numerical = np.asarray(numerical, dtype=np.float64)
            if numerical.ndim == 1:
                numerical = numerical[None, :]
        pending = PendingPrediction(categorical.shape[0], time.perf_counter())
        self._pending.append(pending)
        self._pending_categorical.append(categorical)
        self._pending_numerical.append(numerical)
        self._pending_rows += pending.rows
        if self._pending_rows >= self.max_batch_size:
            self.flush()
        return pending

    def flush(self):
        served = 0
        while self._pending:
            served += self._serve_one_micro_batch()
        return served

    def predict(self, categorical, numerical=None):
        pending = self.submit(categorical, numerical)
        if not pending.done:
            self.flush()
        return pending.result()

    def _serve_one_micro_batch(self):
        model = self.model_of()
        requests, categorical, numerical = [], [], []
        rows = 0
        while self._pending and (
            rows == 0 or rows + self._pending[0].rows <= self.max_batch_size
        ):
            requests.append(self._pending.popleft())
            categorical.append(self._pending_categorical.popleft())
            numerical.append(self._pending_numerical.popleft())
            rows += requests[-1].rows
        self._pending_rows -= rows

        cat = np.concatenate(categorical, axis=0)
        num = None
        if any(n is not None for n in numerical):
            width = getattr(model, "num_numerical", 0)
            num = np.concatenate(
                [
                    n if n is not None else np.zeros((c.shape[0], width))
                    for n, c in zip(numerical, categorical)
                ],
                axis=0,
            )
        if num is None:
            # The one deliberate difference: the old code handed an all-``None``
            # micro-batch to the model as ``numerical=None``, which a model with
            # numerical features refuses (dropping the whole micro-batch).
            # ``None`` now always means zeros, so the oracle is given them.
            num = np.zeros((rows, model.num_numerical))
        probabilities = model.predict_proba(cat, num)
        offset = 0
        for pending in requests:
            pending.probabilities = probabilities[offset: offset + pending.rows]
            offset += pending.rows
        self.micro_batches += 1
        self.requests_served += len(requests)
        self.rows_served += rows
        return rows


def make_model(method="hash", seed=0):
    store = ShardedEmbeddingStore.build(
        method, num_features=NUM_FEATURES, dim=DIM, num_shards=2 if method == "cafe" else 1,
        compression_ratio=6.0, seed=seed,
    )
    return DLRM(store, FIELDS, NUMERICAL, rng=seed)


def request_pool(seed=11):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, NUM_FEATURES, size=(POOL, FIELDS)),
        rng.normal(size=(POOL, NUMERICAL)),
    )


def train_once(model, rng):
    ids = rng.integers(0, NUM_FEATURES, size=(32, FIELDS))
    model.store.lookup(ids)
    model.store.apply_gradients(
        ids, rng.normal(scale=0.1, size=(32, FIELDS, DIM)).astype(np.float32)
    )


def record_batches(model, log):
    """Log the row count of every ``predict_proba`` call on ``model``."""
    inner = type(model).predict_proba

    def predict_proba(categorical, numerical=None):
        log.append(len(categorical))
        return inner(model, categorical, numerical)

    model.predict_proba = predict_proba
    return model


def _twin_of(model):
    """A second served model over ``model``'s very weights and store view.

    The oracle must run the very same frozen network as the system under
    test, but its batch log is recorded separately; it gets its own method
    table and workspace, and shares the flat weight array (no copy).
    """
    return ServedModel(model.architecture, model.store, model.weights)


#: One step of a request script.  Sizes are relative to the micro-batch so
#: every example crosses the threshold, overshoots it and (sometimes) sends
#: a request larger than a whole micro-batch.
OPS = st.one_of(
    st.tuples(
        st.just("submit"),
        st.sampled_from([0, 1, 1, 1, 2, 3, 5, 9, 20]),  # 0 = one 1-D example
        st.sampled_from(["float64", "float32", "none"]),
    ),
    st.tuples(st.just("predict"), st.sampled_from([1, 4, 11]), st.just("float64")),
    st.tuples(st.just("flush"), st.just(0), st.just("")),
    st.tuples(st.just("publish"), st.just(0), st.just("")),
    st.tuples(st.just("set_max"), st.sampled_from([1, 2, 4, 8, 16, 64]), st.just("")),
)


class Driver:
    """Feeds one script to the system under test and to its oracle."""

    def __init__(self):
        self.categorical, self.numerical = request_pool()
        self.cursor = 0
        self.new_handles, self.old_handles = [], []

    def rows(self, count, kind):
        rows = max(count, 1)
        if self.cursor + rows > POOL:
            self.cursor = 0
        start, self.cursor = self.cursor, self.cursor + rows
        categorical = self.categorical[start: start + rows]
        numerical = None if kind == "none" else self.numerical[start: start + rows].astype(kind)
        if count == 0:  # a single example as 1-D arrays
            categorical = categorical[0]
            numerical = None if numerical is None else numerical[0]
        return categorical, numerical

    def check(self, new_counters, old_counters, new_batches, old_batches, context):
        done_new = [h.done for h in self.new_handles]
        done_old = [h.done for h in self.old_handles]
        assert done_new == done_old, f"done-ness differs after {context}"
        assert new_batches == old_batches, f"micro-batch grouping differs after {context}"
        assert new_counters == old_counters, f"counters differ after {context}"
        for new, old in zip(self.new_handles, self.old_handles):
            if new.done:
                assert new.rows == old.rows
                assert np.array_equal(new.probabilities, old.probabilities), context


def counters(batcher):
    return (batcher.micro_batches, batcher.requests_served, batcher.rows_served)


class TestDifferentialAgainstTheOldQueue:
    @given(script=st.lists(OPS, min_size=1, max_size=40), max_batch=st.sampled_from([1, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_serving_engine(self, script, max_batch):
        model = make_model()
        rng = np.random.default_rng(0)
        engine = ServingEngine(model, max_batch_size=max_batch)
        new_batches, old_batches = [], []
        record_batches(engine._frozen_model, new_batches)
        frozen = {"model": record_batches(_twin_of(engine._frozen_model), old_batches)}
        oracle = ReferenceMicroBatcher(lambda: frozen["model"], max_batch)
        driver = Driver()
        for op, size, kind in script:
            if op in ("submit", "predict"):
                categorical, numerical = driver.rows(size, kind)
                if op == "submit":
                    driver.new_handles.append(engine.submit(categorical, numerical))
                    driver.old_handles.append(oracle.submit(categorical, numerical))
                else:
                    got = engine.predict(categorical, numerical)
                    assert np.array_equal(got, oracle.predict(categorical, numerical))
            elif op == "flush":
                assert engine.flush() == oracle.flush()
            elif op == "publish":  # refresh() with requests pending
                train_once(model, rng)
                oracle.flush()
                engine.refresh()
                record_batches(engine._frozen_model, new_batches)
                frozen["model"] = record_batches(_twin_of(engine._frozen_model), old_batches)
            else:
                engine.max_batch_size = oracle.max_batch_size = size
            assert engine.queued_rows == oracle._pending_rows
            driver.check(
                counters(engine), counters(oracle), new_batches, old_batches, (op, size, kind)
            )
        assert engine.flush() == oracle.flush()
        driver.check(counters(engine), counters(oracle), new_batches, old_batches, "final flush")
        assert all(h.done for h in driver.new_handles)

    @given(script=st.lists(OPS, min_size=1, max_size=40), max_batch=st.sampled_from([2, 8]))
    @settings(max_examples=40, deadline=None)
    def test_replica_set(self, script, max_batch):
        model = make_model()
        rng = np.random.default_rng(0)
        tier = ReplicaTier(model, num_replicas=2, max_batch_size=max_batch)
        tier.publish()
        replicas = tier.replicas
        new_batches = [[] for _ in replicas.replicas]
        old_batches = [[] for _ in replicas.replicas]
        twins = [None] * len(replicas.replicas)

        def rewire():
            for index, replica in enumerate(replicas.replicas):
                record_batches(replica._serving.model, new_batches[index])
                twins[index] = record_batches(
                    _twin_of(replica._serving.model), old_batches[index]
                )

        rewire()
        oracles = [
            ReferenceMicroBatcher(lambda index=index: twins[index], max_batch)
            for index in range(len(replicas.replicas))
        ]
        next_oracle = [0]

        def route():  # round-robin
            oracle = oracles[next_oracle[0]]
            next_oracle[0] = (next_oracle[0] + 1) % len(oracles)
            return oracle

        driver = Driver()
        for op, size, kind in script:
            if op in ("submit", "predict"):
                categorical, numerical = driver.rows(size, kind)
                if op == "submit":
                    driver.new_handles.append(replicas.submit(categorical, numerical))
                    driver.old_handles.append(route().submit(categorical, numerical))
                else:
                    got = replicas.route().predict(categorical, numerical)
                    assert np.array_equal(got, route().predict(categorical, numerical))
            elif op == "flush":
                assert replicas.flush() == sum(oracle.flush() for oracle in oracles)
            elif op == "publish":  # cutover with requests pending
                train_once(model, rng)
                for oracle in oracles:
                    oracle.flush()
                tier.publish()
                rewire()
            else:
                for replica, oracle in zip(replicas.replicas, oracles):
                    replica.max_batch_size = oracle.max_batch_size = size
            for replica, oracle in zip(replicas.replicas, oracles):
                assert replica.queued_rows == oracle._pending_rows
            driver.check(
                [counters(r) for r in replicas.replicas],
                [counters(o) for o in oracles],
                new_batches, old_batches, (op, size, kind),
            )
        assert replicas.flush() == sum(oracle.flush() for oracle in oracles)
        driver.check(
            [counters(r) for r in replicas.replicas], [counters(o) for o in oracles],
            new_batches, old_batches, "final flush",
        )


@pytest.fixture(params=["hash", "cafe"], ids=["hash", "cafe2"])
def method(request):
    """The store under ``server``: a one-shard hash store or a two-shard
    CAFE stack."""
    return request.param


@pytest.fixture(params=["engine", "replica_set"])
def server(request, method):
    """A ready server of each kind, micro-batch 8, over ``method``'s store."""
    model = make_model(method)
    if request.param == "engine":
        return ServingEngine(model, max_batch_size=8)
    tier = ReplicaTier(model, num_replicas=1, max_batch_size=8)
    tier.publish()
    return tier.replicas


class TestMalformedRequests:
    """Refused alone, at ``submit``, with a named error; the parent raised a
    bare numpy ``ValueError`` from ``flush()`` and dropped the valid requests
    queued beside the bad one."""

    def bad_requests(self):
        categorical, numerical = request_pool()
        nan_row = numerical[1].copy()
        nan_row[0] = np.nan
        inf_block = numerical[2:5].copy()
        inf_block[1, 1] = -np.inf
        return [
            ("wrong field count", MalformedRequestError, (categorical[1][:-1], numerical[1])),
            ("too many fields", MalformedRequestError,
             (np.concatenate([categorical[1], [0]]), numerical[1])),
            ("3-d ids", MalformedRequestError, (categorical[:4].reshape(2, 2, FIELDS), None)),
            ("float ids", NonIntegerIdError, (categorical[1] + 0.5, numerical[1])),
            ("NaN numerical", MalformedRequestError, (categorical[1], nan_row)),
            ("inf in a block", MalformedRequestError, (categorical[2:5], inf_block)),
            ("float64 that overflows the model's float32", MalformedRequestError,
             (categorical[1], np.asarray([1e300, 0.0]))),
            ("wrong numerical width", MalformedRequestError, (categorical[1], numerical[1][:1])),
            ("one numerical row for three examples", MalformedRequestError,
             (categorical[2:5], numerical[2])),
            ("right size, wrong shape", MalformedRequestError,
             (categorical[2:4], numerical[2:4].reshape(1, 2 * NUMERICAL))),
        ]

    def test_only_the_offending_request_is_refused(self, server):
        categorical, numerical = request_pool()
        good = [server.submit(categorical[0], numerical[0])]
        for name, error, (bad_categorical, bad_numerical) in self.bad_requests():
            with pytest.raises(error) as raised, np.errstate(over="ignore"):
                server.submit(bad_categorical, bad_numerical)
            assert isinstance(raised.value, BadBatchError), name
            assert isinstance(raised.value, ValueError), name
            good.append(server.submit(categorical[0], numerical[0]))
            if all(h.done for h in good):  # the threshold flushed them: start over
                good = [server.submit(categorical[0], numerical[0])]
        assert server.flush() == len(good)
        reference = server.submit(categorical[0], numerical[0])
        server.flush()
        for handle in good:
            assert handle.done and np.allclose(handle.result(), reference.result(), rtol=1e-5)

    def test_huge_but_finite_float64_passes_a_float64_model(self):
        """The NaN/inf screen sums the cast values; a sum that overflows from
        finite values must fall through to the exact check, not refuse."""
        store = ShardedEmbeddingStore.build(
            "hash", num_features=NUM_FEATURES, dim=DIM, num_shards=1,
            compression_ratio=6.0, seed=0, dtype="float64",
        )
        model = DLRM(store, FIELDS, NUMERICAL, rng=0)
        assert model.dtype == np.float64
        engine = ServingEngine(model, max_batch_size=4)
        categorical, _ = request_pool()
        huge = np.full(NUMERICAL, np.finfo(np.float64).max)
        # The screen's sum and the forward pass overflow (numpy warns); not the point here.
        with np.errstate(all="ignore"):
            handle = engine.submit(categorical[0], huge)
            engine.flush()
        assert handle.done

    def test_numerical_none_is_zeros_even_when_every_request_omits_it(self):
        model = make_model()
        engine = ServingEngine(model, max_batch_size=8)
        categorical, numerical = request_pool()
        handles = [engine.submit(categorical[i], None) for i in range(3)]
        engine.flush()
        expected = engine.predict(categorical[:3], np.zeros_like(numerical[:3]))
        assert np.array_equal(np.concatenate([h.result() for h in handles]), expected)

    def test_not_ready_replica_still_refuses_before_validating(self):
        replicas = ReplicaSet(1, max_batch_size=4)
        with pytest.raises(RuntimeError, match="no published snapshot"):
            replicas.submit(np.zeros(FIELDS, dtype=np.int64), None)
        assert replicas.flush() == 0


class TestOutOfRangeIdAtFlush:
    """Ids are range-checked by the store at lookup, not at ``submit``: an
    out-of-range id fails only its own request.  The flush serves the valid
    requests queued with it in one pass, and the bad handle is done with the
    named error (docs/serving.md, "Malformed requests")."""

    def test_only_the_bad_request_fails(self, server):
        categorical, numerical = request_pool()
        good = [4, 5, 6]
        expected = [server.submit(categorical[i], numerical[i]) for i in good]
        server.flush()
        expected = [handle.result() for handle in expected]
        bad = categorical[3].copy()
        bad[1] = NUM_FEATURES
        queued = [
            server.submit(categorical[4], numerical[4]),
            server.submit(bad, numerical[3]),
            server.submit(categorical[5:7], numerical[5:7]),
        ]
        assert server.flush() == 4
        assert all(handle.done for handle in queued)
        with pytest.raises(IdOutOfRangeError, match=f"\\[0, {NUM_FEATURES}\\)"):
            queued[1].result()
        served = np.concatenate([queued[0].result(), queued[2].result()])
        np.testing.assert_allclose(served, np.concatenate(expected), rtol=1e-6)
        batchers = server.replicas if isinstance(server, ReplicaSet) else [server]
        assert all(batcher.queued_rows == 0 for batcher in batchers)
        assert sum(batcher.rows_served for batcher in batchers) == 3 + 3
        assert server.flush() == 0

    def test_a_threshold_submit_does_not_raise(self, server):
        categorical, numerical = request_pool()
        bad = categorical[0].copy()
        bad[0] = -1
        handles = [server.submit(bad, numerical[0])]
        handles += [server.submit(categorical[i], numerical[i]) for i in range(1, 8)]
        assert all(handle.done for handle in handles)  # micro-batch 8: served at submit
        with pytest.raises(IdOutOfRangeError):
            handles[0].result()
        assert all(handle.result().shape == (1,) for handle in handles[1:])

    def test_a_micro_batch_of_bad_requests_only(self, server, method):
        categorical, numerical = request_pool()
        bad = categorical[0].copy()
        bad[2] = NUM_FEATURES + 5
        handle = server.submit(bad, numerical[0])
        assert server.flush() == 1
        with pytest.raises(IdOutOfRangeError):
            handle.result()
        after = server.submit(categorical[:2], numerical[:2])
        assert server.flush() == 2
        assert np.array_equal(
            after.result(),
            ServingEngine(make_model(method), max_batch_size=8).predict(
                categorical[:2], numerical[:2]
            ),
        )


class TestBlockReuseContract:
    def test_numerical_lands_in_the_block_in_the_models_dtype(self):
        model = make_model()
        engine = ServingEngine(model, max_batch_size=4)
        categorical, numerical = request_pool()
        engine.submit(categorical[0], numerical[0])
        assert engine._numerical.dtype == model.dtype == np.float32
        assert engine._categorical.shape == (4, FIELDS)
        assert engine._numerical.shape == (4, NUMERICAL)

    def test_blocks_are_reused_and_grow_only_when_a_request_does_not_fit(self):
        engine = ServingEngine(make_model(), max_batch_size=4)
        categorical, numerical = request_pool()
        for i in range(12):
            engine.submit(categorical[i], numerical[i])
        block = engine._categorical
        for i in range(12):
            engine.submit(categorical[i], numerical[i])
        assert engine._categorical is block
        pending = engine.submit(categorical[0], numerical[0])
        oversized = engine.submit(categorical[:9], numerical[:9])
        assert pending.done and oversized.done and engine._categorical.shape[0] >= 10
        assert np.array_equal(oversized.result(), engine.predict(categorical[:9], numerical[:9]))

    def test_replies_and_retained_state_never_alias_the_block(self):
        engine = ServingEngine(make_model("cafe"), max_batch_size=4)
        categorical, numerical = request_pool()
        handles = [engine.submit(categorical[i], numerical[i]) for i in range(8)]
        blocks = (engine._categorical, engine._numerical)
        for handle in handles:
            assert not any(np.shares_memory(handle.probabilities, block) for block in blocks)
        before = [handle.probabilities.copy() for handle in handles]
        for i in range(8, 16):  # overwrite the block
            engine.submit(categorical[i], numerical[i])
        for handle, kept in zip(handles, before):
            assert np.array_equal(handle.probabilities, kept)

    def test_sanitizer_flags_a_reply_that_aliases_the_block(self, monkeypatch):
        class Aliasing(MicroBatcher):
            class Model:
                num_fields, num_numerical, dtype = FIELDS, NUMERICAL, np.dtype(np.float32)

                @staticmethod
                def predict_proba(categorical, numerical):
                    return numerical[:, 0]  # a view of the request block

            def _serving_model(self):
                return self.Model

        categorical, numerical = request_pool()
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        quiet = Aliasing(2)
        quiet.submit(categorical[0], numerical[0])
        quiet.submit(categorical[1], numerical[1])  # unchecked when the flag is off
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        batcher = Aliasing(2)
        batcher.submit(categorical[0], numerical[0])
        with pytest.raises(SanitizerViolation, match="request block"):
            batcher.submit(categorical[1], numerical[1])
