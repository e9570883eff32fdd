"""The four benchmark workloads, their untraced loops and their traced twins.

Every system is built through ``repro.api.build(SystemConfig)`` and driven
from outside through public calls only.  A *system* here is one built
session plus the load generator's state; it offers

``op()``
    one unit of work inside the clock (a training step with whatever the
    workload hangs on it, or 64 single-row requests = one micro-batch);
``traced_op(tracer)``
    the same unit re-issued as its public layer calls with a span around
    each (the traced twin);
``drain()``
    latencies of the ops since the last drain, taken *outside* the clock,
    together with the reply checks;
``quality()``
    ``(loss, auc)`` after a fixed number of rows, so both repeat exactly for
    one seed however fast the host is.

``measure`` runs either form for a number of seconds in segments of a fixed
number of ops; timing metrics are statistics over the segments.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_unpinned = [name for name in THREAD_VARS if os.environ.get(name) != "1"]
if _unpinned:
    # BLAS threading is a 3x swing on a 2-vCPU host; a number taken without
    # the pin recorded in `env` is not comparable with any other.
    raise RuntimeError(
        f"refusing to benchmark: {_unpinned} must be '1' before numpy is imported "
        "(run through perf/run.py, which pins them)"
    )

import numpy as np  # noqa: E402 - after the thread pin on purpose

from repro.api import SystemConfig, build  # noqa: E402
from repro.data.drift import RotatingDrift  # noqa: E402
from repro.data.stream import iterate_batches  # noqa: E402
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset  # noqa: E402
from repro.nn import functional as F  # noqa: E402
from repro.nn.tensor import Tensor, get_default_dtype  # noqa: E402
from repro.runtime.pipeline import OnlinePipeline, PipelineConfig  # noqa: E402
from repro.serving.engine import ServingEngine  # noqa: E402
from repro.serving.replica import ReplicaTier  # noqa: E402
from repro.training.metrics import log_loss, roc_auc  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402

#: ``SystemConfig.seed`` of every workload.  It draws the field
#: cardinalities, the planted label model and the initial parameters, i.e. it
#: picks the *system*; across seeds the feature count moves 15k-40k and RSS,
#: set-up time and AUC with it.  ``--seed`` picks the *inputs* instead: which
#: samples each day, the test rows and the request pool hold.
WORLD_SEED = 0
MICRO_BATCH = 64
TEST_ROWS = 8192
PUBLISH_EVERY = 10
PROBE_EVERY = 5
#: Re-run the two serve-path layer calls on every N-th served micro-batch.
SHADOW_EVERY = 8

pc = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (see perf/README.md for the why)."""

    name: str
    kind: str  # "train" | "serve"
    model: str
    scale: str
    batch_size: int
    num_shards: int
    row_optimizer: str
    warmup_ops: int
    #: Ops per segment: a whole number of stream days (or half a pass over
    #: the request pool), so every segment holds the same day-boundary
    #: stalls and segment throughputs are comparable.
    segment_ops: int
    #: Rows after which loss and AUC are taken, per second of ``--seconds``:
    #: about 55 % of what the recording host completes when quiet, so the point is
    #: always reached inside the run and never depends on the host's speed.
    quality_rows_per_s: int
    #: Lowest AUC a run of BENCHMARK.json's ``run_seconds`` may produce: the
    #: smallest value recorded over 10 seeds - 0.03.
    auc_floor: float
    drift_swap_fraction: float | None = None
    publish: bool = False
    pool_rows: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_dense", "train", model="dlrm", scale="small", batch_size=2048,
            num_shards=1, row_optimizer="sgd", warmup_ops=16, segment_ops=8,
            quality_rows_per_s=18432, auc_floor=0.42,
        ),
        Workload(
            "train_sparse", "train", model="wdl", scale="small", batch_size=128,
            num_shards=4, row_optimizer="adagrad", warmup_ops=256, segment_ops=128,
            quality_rows_per_s=16384, auc_floor=0.67, drift_swap_fraction=0.2,
        ),
        Workload(
            "serve_closed", "serve", model="dlrm", scale="tiny", batch_size=128,
            num_shards=1, row_optimizer="sgd", warmup_ops=256, segment_ops=512,
            quality_rows_per_s=32768, auc_floor=0.56, pool_rows=65536,
        ),
        Workload(
            "online_publish", "train", model="dlrm", scale="tiny", batch_size=128,
            num_shards=1, row_optimizer="sgd", warmup_ops=256, segment_ops=128,
            quality_rows_per_s=16384, auc_floor=0.57, publish=True,
        ),
    )
}


def build_session(workload: Workload, smoke: bool):
    """The workload's system, compiled from one declarative config."""
    config = SystemConfig.from_dict(
        {
            "seed": WORLD_SEED,
            # 16k-sample days: a 160k-sample day stalls 1.5 s at each day
            # boundary and blows the segment IQR to 50 %.
            "data": {
                "dataset": "criteo",
                "scale": workload.scale,
                "num_days": 57,
                "samples_per_day": 2048 if smoke else 16384,
            },
            "store": {
                "spec": "cafe",
                "compression_ratio": 10.0,
                "num_shards": workload.num_shards,
                "executor": "serial",
                "optimizer": workload.row_optimizer,
                "dtype": "float32",
            },
            "model": {"name": workload.model},
            "train": {"batch_size": workload.batch_size},
        }
    )
    session = build(config)
    if workload.drift_swap_fraction is not None:
        session.dataset = SyntheticCTRDataset(
            session.schema,
            config=SyntheticConfig(
                samples_per_day=config.data.samples_per_day, seed=WORLD_SEED
            ),
            drift=RotatingDrift(swap_fraction=workload.drift_swap_fraction, seed=WORLD_SEED),
        )
    return session


def input_offset(seed: int) -> int:
    """``generate_day``'s ``seed_offset`` for one ``--seed``.

    The generator seeds a day with ``1000 * (day + 1) + seed_offset``; a
    stride above 57 000 keeps the days of different seeds apart.
    """
    return 100003 * (seed + 1)


def training_stream(dataset, batch_size: int, seed: int):
    """The chronological day stream of one ``--seed``, restarted when it ends."""
    while True:
        for day in dataset.train_days:
            data = dataset.generate_day(day, seed_offset=input_offset(seed))
            yield from iterate_batches(
                data.categorical, data.numerical, data.labels, batch_size, day=day
            )


def test_rows(dataset, rows: int, seed: int):
    """Held-out last-day rows of one ``--seed``."""
    return dataset.generate_day(
        dataset.test_day, num_samples=rows, seed_offset=99991 + input_offset(seed)
    )


def smoke_size(full: int, smoke: bool) -> int:
    """``--smoke`` runs an eighth of every warm-up and segment."""
    return max(full // 8, 2) if smoke else full


def in_unit_interval(values: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(values)) and values.min() >= 0.0 and values.max() <= 1.0)


# ---------------------------------------------------------------------- #
# Training workloads (train_dense, train_sparse, online_publish)
# ---------------------------------------------------------------------- #
class TrainSystem:
    def __init__(self, workload: Workload, seed: int, smoke: bool):
        self.session = build_session(workload, smoke)
        self.trainer = self.session.trainer
        self.model = self.session.model
        self.store = self.session.store
        self.test = test_rows(self.session.dataset, TEST_ROWS, seed)
        self.stream = training_stream(self.session.dataset, workload.batch_size, seed)
        self.pipeline = None
        self.tier = None
        if workload.publish:
            self.tier = ReplicaTier(
                self.model, num_replicas=2, max_batch_size=MICRO_BATCH, rebase_every=8
            )
            self.pipeline = OnlinePipeline(
                self.model,
                config=PipelineConfig(
                    publish_every_steps=PUBLISH_EVERY, serving_micro_batch=MICRO_BATCH
                ),
                trainer=self.trainer,
                tier=self.tier,
            )
            self.tier.publish()  # the full base snapshot every delta chains from
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.losses: list[float] = []
        self.step_s: list[float] = []
        self.drained = 0
        self.max_staleness = 0
        self.unique_ratios: list[float] = []
        for _ in range(smoke_size(workload.warmup_ops, smoke)):
            self.op()
        self.start_measuring()

    def start_measuring(self) -> None:
        """Forget the warm-up: counters and layer stats restart here."""
        self.warmup_steps = self.steps
        self.attempted = self.failed = 0
        self.losses.clear()
        self.step_s.clear()
        self.drained = 0
        self.max_staleness = 0
        self.store.executor.stats.reset()

    # -- the untraced op: exactly what a caller of the library runs -------- #
    def op(self) -> int:
        batch = next(self.stream)
        start = pc()
        loss = self.trainer.train_step(batch)
        self.step_s.append(pc() - start)
        self._after_step(loss)
        return len(batch)

    def _after_step(self, loss: float, tracer: Tracer | None = None, parent: int = -1) -> None:
        self.steps += 1
        self.attempted += 1
        self.losses.append(loss)
        if not np.isfinite(loss):
            self.failed += 1
        if self.pipeline is None:
            return
        # Staleness is sampled before the publish this step may trigger: the
        # worst lag a request served during this step could have seen.
        self.max_staleness = max(self.max_staleness, self.pipeline.staleness_steps())
        if self.steps % PUBLISH_EVERY == 0:
            self.attempted += 1
            if tracer is None:
                self.pipeline.publish()
            else:
                self._traced_publish(tracer, parent)
            if set(self.tier.replicas.versions()) != {self.tier.publisher.version}:
                self.failed += 1
        if self.steps % PROBE_EVERY == 0:
            self.attempted += 1
            rows = self._probe_rows(self.steps // PROBE_EVERY)
            if tracer is None:
                pending = self.tier.submit(self.test.categorical[rows], self.test.numerical[rows])
                self.tier.flush()
            else:
                pending = self._traced_probe(tracer, parent, rows)
            if not (pending.done and in_unit_interval(pending.probabilities)):
                self.failed += 1

    def _probe_rows(self, index: int) -> slice:
        start = (index * MICRO_BATCH) % TEST_ROWS
        return slice(start, start + MICRO_BATCH)

    # -- the traced twin: the same calls, one span around each ------------- #
    def traced_op(self, tracer: Tracer) -> int:
        now = tracer.now
        step = self.steps
        root = tracer.open("training.iteration", step)
        t0 = now()
        batch = next(self.stream)
        t1 = now()
        tracer.add("data.next_batch", t0, t1, root, step)

        model, store, trainer = self.model, self.store, self.trainer
        start = pc()
        span = tracer.open("training.train_step", step, root)
        categorical = np.asarray(batch.categorical, dtype=np.int64)
        numerical = np.asarray(batch.numerical, dtype=get_default_dtype())
        t0 = now()
        vectors = store.lookup(categorical)
        t1 = now()
        tracer.add("store.lookup", t0, t1, span, step)
        leaf = Tensor(vectors, requires_grad=True, name="embedding_leaf")
        t0 = now()
        logits = model.forward_dense(leaf, numerical)
        t1 = now()
        tracer.add("models.forward_dense", t0, t1, span, step)
        t0 = now()
        loss = F.binary_cross_entropy_with_logits(logits, batch.labels)
        t1 = now()
        tracer.add("nn.loss", t0, t1, span, step)
        model.zero_grad()
        t0 = now()
        loss.backward()
        t1 = now()
        tracer.add("nn.backward", t0, t1, span, step)
        t0 = now()
        store.apply_gradients(categorical, leaf.grad)
        t1 = now()
        tracer.add("store.apply_gradients", t0, t1, span, step)
        t0 = now()
        trainer.dense_optimizer.step()
        t1 = now()
        tracer.add("nn.optim_step", t0, t1, span, step)
        trainer.global_step += 1
        value = float(loss.data)
        tracer.close(span)
        self.step_s.append(pc() - start)

        if (step - self.warmup_steps) % 16 == 0:
            self.unique_ratios.append(np.unique(categorical).size / categorical.size)
        self._after_step(value, tracer, root)
        tracer.close(root)
        return len(batch)

    def _traced_publish(self, tracer: Tracer, parent: int) -> None:
        """``OnlinePipeline.publish()`` as its three public calls."""
        now = tracer.now
        op_id = self.tier.publisher.version + 1
        span = tracer.open("serving.publish", op_id, parent)
        t0 = now()
        self.pipeline.engine.refresh()
        t1 = now()
        tracer.add("serving.engine_refresh", t0, t1, span, op_id)
        t0 = now()
        payload = self.tier.publisher.publish()
        t1 = now()
        tracer.add("serving.publish_extract", t0, t1, span, op_id)
        t0 = now()
        self.tier.replicas.publish(payload)
        t1 = now()
        tracer.add("serving.publish_apply", t0, t1, span, op_id)
        tracer.close(span)

    def _traced_probe(self, tracer: Tracer, parent: int, rows: slice):
        now = tracer.now
        categorical, numerical = self.test.categorical[rows], self.test.numerical[rows]
        version = self.tier.version
        t0 = now()
        pending = self.tier.submit(categorical, numerical)
        self.tier.flush()
        t1 = now()
        tracer.add("serving.probe", t0, t1, parent, version)
        if (self.steps // PROBE_EVERY) % SHADOW_EVERY == 0:
            shadow_layers(tracer, parent, version, self.pipeline.engine.snapshot,
                          self.model, categorical, numerical)
        return pending

    # -- outside the clock -------------------------------------------------- #
    def drain(self) -> np.ndarray:
        latencies = np.asarray(self.step_s[self.drained:], dtype=np.float64)
        self.drained = len(self.step_s)
        return latencies

    def quality(self) -> tuple[float, float]:
        return float(np.mean(self.losses)), self.trainer.evaluate_auc(self.test)

    def final_checks(self) -> list[tuple[str, bool, str]]:
        checks = []
        if self.pipeline is not None:
            checks.append((
                "staleness_within_cadence",
                self.max_staleness <= PUBLISH_EVERY,
                f"max staleness {self.max_staleness} steps, cadence {PUBLISH_EVERY}",
            ))
            self.pipeline.publish()
            versions = self.tier.replicas.versions()
            checks.append((
                "replicas_on_publisher_version",
                set(versions) == {self.tier.publisher.version},
                f"replicas {versions}, publisher {self.tier.publisher.version}",
            ))
            rows = self._probe_rows(0)
            categorical, numerical = self.test.categorical[rows], self.test.numerical[rows]
            fresh = ServingEngine(self.model, max_batch_size=MICRO_BATCH).predict(categorical, numerical)
            equal = all(
                np.array_equal(replica.predict(categorical, numerical), fresh)
                for replica in self.tier.replicas.replicas
            )
            checks.append((
                "replicas_equal_fresh_snapshot", equal,
                "replica replies on the probe rows vs a fresh full-snapshot ServingEngine",
            ))
        return checks

    def per_layer(self, tracer: Tracer) -> dict[str, float]:
        """Layer metrics of the traced phase (times are medians per call)."""
        trace = tracer.summary()
        steps = max(self.steps - self.warmup_steps, 1)
        stats = self.store.executor.stats
        step_ms, covered_ms = trace.covered_ms("training.train_step")
        plan = self.trainer.embedding_plan_stats()
        out = {
            "data.next_batch_ms": float(trace.durations_ms("data.next_batch").mean()),
            "store.lookup_ms": trace.median_ms("store.lookup"),
            "store.apply_gradients_ms": trace.median_ms("store.apply_gradients"),
            "store.plan_reuse_rate": float(plan["reuse_rate"]) if plan else 0.0,
            "store.unique_id_ratio": float(np.mean(self.unique_ratios)),
            "store.memory_floats": float(self.store.describe()["memory_floats"]),
            "store.grad_bytes_per_step": float(stats.grad_bytes_per_step),
            "runtime.fanout_wall_ms": stats.fanout_wall_s * 1e3 / steps,
            "runtime.parallel_efficiency": float(stats.parallel_efficiency),
            "models.forward_dense_ms": trace.median_ms("models.forward_dense"),
            "nn.loss_ms": trace.median_ms("nn.loss"),
            "nn.backward_ms": trace.median_ms("nn.backward"),
            "nn.optim_step_ms": trace.median_ms("nn.optim_step"),
            "training.step_ms": float(np.median(step_ms)),
            "training.step_glue_ms": float(np.median(step_ms - covered_ms)),
            "training.layer_sum_ratio": float(covered_ms.sum() / step_ms.sum()),
        }
        if self.pipeline is not None:
            publish_ms, publish_covered = trace.covered_ms("serving.publish")
            publisher = self.tier.publisher.stats
            # The step that follows a publish pays the copy-on-write of every
            # shard the frozen snapshot still shares with the live store.
            first = np.arange(step_ms.size) % PUBLISH_EVERY == (-self.warmup_steps) % PUBLISH_EVERY
            out.update({
                "serving.publish_ms": float(np.median(publish_ms)),
                "serving.publish_layer_sum_ratio": float(publish_covered.sum() / publish_ms.sum()),
                "serving.engine_refresh_ms": trace.median_ms("serving.engine_refresh"),
                "serving.publish_extract_ms": trace.median_ms("serving.publish_extract"),
                "serving.publish_apply_ms": trace.median_ms("serving.publish_apply"),
                "serving.delta_floats_per_publish": publisher.floats_shipped / publisher.publishes,
                "serving.delta_rows_per_publish": publisher.rows_shipped / publisher.publishes,
                "serving.full_publish_share": publisher.full_publishes / publisher.publishes,
                "serving.probe_ms": trace.median_ms("serving.probe"),
                "serving.max_staleness_steps": float(self.max_staleness),
                "serving.snapshot_lookup_ms": trace.median_ms("serving.snapshot_lookup"),
                "serving.dense_forward_ms": trace.median_ms("serving.dense_forward"),
                "store.cow_first_step_ms": (
                    float(np.median(step_ms[first]) - np.median(step_ms[~first]))
                    if first.any() else 0.0
                ),
            })
        return out

    def twin_outputs(self) -> np.ndarray:
        return np.asarray(self.losses, dtype=np.float64)


def shadow_layers(tracer, parent, op_id, snapshot, model, categorical, numerical) -> None:
    """Time the serve path's two layer calls on rows that were just served.

    The engine runs them inside one ``predict_proba`` on a private frozen
    model, so from outside they can only be timed by issuing them again.
    """
    now = tracer.now
    span = tracer.open("serving.shadow", op_id, parent)
    numerical = np.asarray(numerical, dtype=get_default_dtype())
    t0 = now()
    vectors = snapshot.lookup(np.asarray(categorical, dtype=np.int64))
    t1 = now()
    tracer.add("serving.snapshot_lookup", t0, t1, span, op_id)
    t0 = now()
    model.forward_dense(Tensor(vectors), numerical)
    t1 = now()
    tracer.add("serving.dense_forward", t0, t1, span, op_id)
    tracer.close(span)


# ---------------------------------------------------------------------- #
# serve_closed
# ---------------------------------------------------------------------- #
class ServeSystem:
    def __init__(self, workload: Workload, seed: int, smoke: bool):
        self.session = build_session(workload, smoke)
        self.model = self.session.model
        # The trained model is part of the system under test; `--seed` picks
        # the requests, so the warm-up trains on the world's own stream.
        self.session.trainer.train_stream(
            training_stream(self.session.dataset, workload.batch_size, WORLD_SEED),
            max_steps=smoke_size(workload.warmup_ops, smoke),
        )
        self.pool = test_rows(
            self.session.dataset, 4096 if smoke else workload.pool_rows, seed
        )
        self.engine = ServingEngine(self.model, max_batch_size=MICRO_BATCH)
        # Reference replies for the sample check, from the live model right
        # after the refresh, in the micro-batch grouping the engine will use.
        self.expected = np.concatenate([
            self.model.predict_proba(
                self.pool.categorical[i:i + MICRO_BATCH], self.pool.numerical[i:i + MICRO_BATCH]
            )
            for i in range(0, 4 * MICRO_BATCH, MICRO_BATCH)
        ])
        self.cursor = 0
        self.handles: list = []
        self.micro_batches = 0
        self.attempted = self.failed = 0
        self.replies: list[np.ndarray] = []
        for _ in range(4 if smoke else 64):
            self.op()
        self.rewind()

    def rewind(self) -> None:
        """Restart the request sequence (both twins serve the same requests)."""
        self.drain()
        self.cursor = 0
        self.attempted = self.failed = 0
        self.replies = []

    def _rows(self) -> range:
        start = self.cursor
        self.cursor = (start + MICRO_BATCH) % len(self.pool)
        return range(start, start + MICRO_BATCH)

    def op(self) -> int:
        submit, handles = self.engine.submit, self.handles
        categorical, numerical = self.pool.categorical, self.pool.numerical
        for row in self._rows():
            handles.append(submit(categorical[row], numerical[row]))
        self.micro_batches += 1
        return MICRO_BATCH

    def traced_op(self, tracer: Tracer) -> int:
        now, add = tracer.now, tracer.add
        submit, handles = self.engine.submit, self.handles
        categorical, numerical = self.pool.categorical, self.pool.numerical
        op_id = self.micro_batches
        rows = self._rows()
        root = tracer.open("serving.requests", op_id)
        for row in rows:
            t0 = now()
            pending = submit(categorical[row], numerical[row])
            t1 = now()
            add("serving.flush" if pending.done else "serving.enqueue", t0, t1, root, op_id)
            handles.append(pending)
        tracer.close(root)
        if op_id % SHADOW_EVERY == 0:
            shadow_layers(tracer, -1, op_id, self.engine.snapshot, self.model,
                          categorical[rows.start:rows.stop], numerical[rows.start:rows.stop])
        self.micro_batches += 1
        return MICRO_BATCH

    def drain(self) -> np.ndarray:
        """Collect latencies and check every reply, outside the clock."""
        self.engine.flush()
        handles, self.handles = self.handles, []
        if not handles:
            return np.empty(0, dtype=np.float64)
        self.attempted += len(handles)
        unanswered = sum(1 for h in handles if not h.done)
        replies = np.concatenate([h.probabilities for h in handles if h.done])
        bad = int(np.count_nonzero(~(np.isfinite(replies) & (replies >= 0.0) & (replies <= 1.0))))
        self.failed += unanswered + bad
        self.replies.append(replies)
        # The engine's own tracker grows by one float per request for ever;
        # latencies are read from the handles, so it is emptied per segment.
        self.engine.latency.reset()
        return np.asarray([h.latency_s for h in handles if h.done], dtype=np.float64)

    def quality(self) -> tuple[float, float]:
        # Ops are whole micro-batches, so every handle of the running
        # segment is answered; its latency window stays open.
        replies = np.concatenate(self.replies + [h.probabilities for h in self.handles])
        labels = self.pool.labels[np.arange(replies.size) % len(self.pool)]
        return log_loss(labels, replies), roc_auc(labels, replies)

    def final_checks(self) -> list[tuple[str, bool, str]]:
        served = np.concatenate(self.replies)[: self.expected.size]
        return [(
            "replies_equal_predict_proba",
            served.size == self.expected.size and np.array_equal(served, self.expected),
            f"first {self.expected.size} replies vs model.predict_proba taken after refresh",
        )]

    def per_layer(self, tracer: Tracer) -> dict[str, float]:
        trace = tracer.summary()
        cycle_ms, covered_ms = trace.covered_ms("serving.requests")
        flush_ms = trace.median_ms("serving.flush")
        lookup_ms = trace.median_ms("serving.snapshot_lookup")
        forward_ms = trace.median_ms("serving.dense_forward")
        return {
            "serving.enqueue_us": trace.median_ms("serving.enqueue") * 1e3,
            "serving.flush_ms": flush_ms,
            "serving.avg_micro_batch_rows": float(self.engine.stats()["avg_micro_batch_rows"]),
            "serving.snapshot_lookup_ms": lookup_ms,
            "serving.dense_forward_ms": forward_ms,
            "serving.assembly_ms": flush_ms - lookup_ms - forward_ms,
            "serving.layer_sum_ratio": float(covered_ms.sum() / cycle_ms.sum()),
            "store.memory_floats": float(self.session.store.describe()["memory_floats"]),
        }

    def twin_outputs(self) -> np.ndarray:
        return np.concatenate(self.replies) if self.replies else np.empty(0)


def host_speed(workload: Workload) -> HostSpeed:
    rows = MICRO_BATCH if workload.kind == "serve" else workload.batch_size
    return HostSpeed(rows)


def make_system(workload: Workload, seed: int, smoke: bool):
    cls = ServeSystem if workload.kind == "serve" else TrainSystem
    return cls(workload, seed, smoke)


# ---------------------------------------------------------------------- #
# The measuring loop
# ---------------------------------------------------------------------- #
def measure(system, op, seconds: float, segment_ops: int, host: HostSpeed,
            min_rows: int = 0, at_min_rows=None):
    """Run ``op`` in segments of ``segment_ops`` ops until ``seconds`` have passed.

    Goes on past ``seconds`` until ``min_rows`` rows are done; the moment
    that count is crossed ``at_min_rows()`` runs with the clock stopped.  A
    host-speed sample is taken between segments, outside the clock.
    Returns ``segments`` (each raw ``(rows_per_s, p50_ms, p99_ms)`` plus the
    segment's correction ``factor``), the host-corrected ``latencies_ms`` of
    every op, ``rows`` done and ``at_min_rows``' value.
    """
    segments = []
    all_latencies = []
    rows_total = 0
    measured_s = 0.0
    crossed = min_rows <= 0
    at_min = None
    speed_before = host.sample_ms()
    while measured_s < seconds or not crossed:
        start = pc()
        rows = 0
        for _ in range(segment_ops):
            rows += op()
            if not crossed and rows_total + rows >= min_rows:
                crossed = True
                if at_min_rows is not None:
                    paused = pc()
                    at_min = at_min_rows()
                    start += pc() - paused
        elapsed = pc() - start
        measured_s += elapsed
        rows_total += rows
        speed_after = host.sample_ms()
        factor = host.factor(speed_before, speed_after)
        speed_before = speed_after
        latencies = system.drain() * 1e3
        all_latencies.append(latencies * factor)
        segments.append((
            rows / elapsed,
            float(np.percentile(latencies, 50)),
            float(np.percentile(latencies, 99)),
            factor,
        ))
    return {
        "segments": segments,
        "latencies_ms": np.concatenate(all_latencies),
        "rows": rows_total,
        "at_min_rows": at_min,
    }
