"""Online train→serve pipeline: continuous training with snapshot publishing.

PR 2 left training and serving as separate scripts: train a while, snapshot
once, replay requests.  Production online learning runs both *at the same
time* — the trainer consumes the day-stream batch by batch while a live
:class:`~repro.serving.engine.ServingEngine` keeps answering requests from
the most recently published copy-on-write snapshot.  :class:`OnlinePipeline`
is that loop:

.. code-block:: text

    day-stream ──► Trainer.train_step ──► live ShardedEmbeddingStore
                        │ every `publish_every_steps`
                        ▼
               engine.refresh()  ── O(1) snapshot + flat dense weight copy
                        ▼
               ServingEngine ◄── probe / client requests (micro-batched)

Because publishing is copy-on-write, a publish is cheap (no table copies)
and the engine's current snapshot is never older than the configured
cadence — the pipeline records exactly that as its *staleness* metrics,
together with publish latency and serve-while-train request latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.data.stream import Batch
from repro.models.base import RecommendationModel
from repro.serving.engine import ServingEngine
from repro.serving.replica import ReplicaTier
from repro.serving.stats import LatencyTracker
from repro.training.trainer import Trainer


@dataclass(frozen=True)
class PipelineConfig:
    """Cadences and sizes of one online train→serve run.

    ``publish_every_steps`` is the snapshot cadence: after every such number
    of training steps the engine re-snapshots the store, which bounds
    snapshot staleness (in steps) by exactly this value.
    ``probe_every_steps`` optionally sends a probe request through the
    serving engine every N steps to sample serve-while-train latency
    (``0`` disables probing).
    """

    publish_every_steps: int = 20
    serving_micro_batch: int = 64
    probe_every_steps: int = 0
    probe_rows: int = 1
    max_steps: int | None = None
    #: Publish once more after the stream ends so serving finishes fresh.
    final_publish: bool = True

    def __post_init__(self):
        if self.publish_every_steps <= 0:
            raise ValueError(
                f"publish_every_steps must be positive, got {self.publish_every_steps}"
            )
        if self.probe_every_steps < 0:
            raise ValueError(
                f"probe_every_steps must be non-negative, got {self.probe_every_steps}"
            )
        if self.probe_rows <= 0:
            raise ValueError(f"probe_rows must be positive, got {self.probe_rows}")


@dataclass
class PipelineReport:
    """Metrics of one :meth:`OnlinePipeline.run`.

    Staleness is sampled after *every* training step (before any publish
    that step triggers), so ``max_staleness_steps`` is the worst gap between
    the live store and the snapshot being served at any point of the run;
    ``staleness_within_cadence`` asserts the pipeline's contract that this
    never exceeds ``publish_every_steps``.
    """

    steps: int
    cadence_steps: int
    publishes: int
    publish_latencies_s: list[float] = field(default_factory=list)
    max_staleness_steps: int = 0
    max_staleness_s: float = 0.0
    losses: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    probe_stats: dict[str, Any] | None = None
    serving_stats: dict[str, Any] | None = None
    replica_stats: dict[str, Any] | None = None
    executor_stats: dict[str, Any] | None = None
    final_snapshot_version: int = 0
    days_seen: list[int] = field(default_factory=list)

    @property
    def staleness_within_cadence(self) -> bool:
        return self.max_staleness_steps <= self.cadence_steps

    @property
    def average_loss(self) -> float:
        return float(np.mean(self.losses)) if self.losses else float("nan")

    def publish_percentile_ms(self, percentile: float) -> float:
        if not self.publish_latencies_s:
            return float("nan")
        return float(np.percentile(np.asarray(self.publish_latencies_s), percentile) * 1e3)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready summary (what the CLI reports)."""
        return {
            "steps": self.steps,
            "steps_per_s": round(self.steps / self.elapsed_s, 2) if self.elapsed_s else 0.0,
            "avg_train_loss": round(self.average_loss, 5),
            "days_seen": self.days_seen,
            "cadence_steps": self.cadence_steps,
            "publishes": self.publishes,
            "publish_p50_ms": round(self.publish_percentile_ms(50.0), 4),
            "publish_max_ms": round(self.publish_percentile_ms(100.0), 4),
            "max_staleness_steps": self.max_staleness_steps,
            "max_staleness_ms": round(self.max_staleness_s * 1e3, 2),
            "staleness_within_cadence": self.staleness_within_cadence,
            "final_snapshot_version": self.final_snapshot_version,
            "probe": self.probe_stats,
            "serving": self.serving_stats,
            "replicas": self.replica_stats,
            "executor": self.executor_stats,
        }


class OnlinePipeline:
    """Continuously train a model while serving from fresh snapshots.

    The pipeline owns a :class:`~repro.training.trainer.Trainer` over the
    live model and a :class:`~repro.serving.engine.ServingEngine` over its
    snapshots.  Both run in the calling thread — what makes "serve while
    train" safe is the copy-on-write snapshot contract, not thread
    separation: requests served between publishes read frozen shard objects
    the trainer is guaranteed never to mutate.  The engine itself is not
    internally locked, so it must stay driven by this one thread (``run``
    calls ``refresh`` and probe ``submit``/``flush`` on it); other threads
    may read the published *snapshots* directly (``engine.snapshot.lookup``)
    at any time, which is what the concurrent-publish tests exercise.
    """

    def __init__(
        self,
        model: RecommendationModel,
        config: PipelineConfig | None = None,
        trainer: Trainer | None = None,
        engine: ServingEngine | None = None,
        tier: ReplicaTier | None = None,
    ):
        self.model = model
        self.config = config or PipelineConfig()
        self.trainer = trainer or Trainer(model)
        self.engine = engine or ServingEngine(
            model, max_batch_size=self.config.serving_micro_batch
        )
        #: Optional replicated serving tier: when set, every publish also
        #: ships a delta/full payload to the replicas, and probes are routed
        #: through the replica router instead of the local engine.
        self.tier = tier

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def staleness_steps(self) -> int:
        """Training steps the served snapshot lags behind the live store."""
        snapshot = self.engine.snapshot
        if snapshot is None:
            return 0
        return max(int(self.model.store.step()) - int(snapshot.step), 0)

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #
    def publish(self) -> float:
        """Refresh the engine's snapshot now; returns publish latency in s.

        With a replica tier attached the same cadence also ships one
        versioned payload to every replica: a full snapshot, or a delta
        carrying each shard written since the last publish whole (the
        publisher decides).  The tier records its own publish latencies;
        the latency returned here is the engine refresh alone.
        """
        start = time.perf_counter()
        self.engine.refresh()
        latency = time.perf_counter() - start
        if self.tier is not None:
            self.tier.publish()
        return latency

    def run(self, stream: Iterable[Batch], probe_batch: Batch | None = None) -> PipelineReport:
        """Consume ``stream``, training and publishing on the cadence.

        ``probe_batch`` supplies rows for serve-while-train probes (enabled
        by ``config.probe_every_steps``); each probe is a real request
        through the micro-batching engine against the current snapshot.
        """
        config = self.config
        probe_tracker = LatencyTracker()
        publish_latencies: list[float] = []
        losses: list[float] = []
        days: list[int] = []
        max_staleness_steps = 0
        max_staleness_s = 0.0
        steps = 0
        probes = 0
        if self.tier is not None and not self.tier.ready:
            # Bootstrap the version chain: replicas must hold a full base
            # snapshot before any delta (or probe) can reach them.
            self.tier.publish()
        last_publish = time.perf_counter()
        started = time.perf_counter()

        for batch in stream:
            losses.append(self.trainer.train_step(batch))
            steps += 1
            if not days or days[-1] != batch.day:
                days.append(batch.day)

            # Sample staleness *before* any publish this step triggers: this
            # is the worst lag a request served this step could observe.
            max_staleness_steps = max(max_staleness_steps, self.staleness_steps())
            max_staleness_s = max(max_staleness_s, time.perf_counter() - last_publish)

            if steps % config.publish_every_steps == 0:
                publish_latencies.append(self.publish())
                last_publish = time.perf_counter()

            if (
                probe_batch is not None
                and config.probe_every_steps
                and steps % config.probe_every_steps == 0
            ):
                self._probe(probe_batch, probes, probe_tracker)
                probes += 1

            if config.max_steps is not None and steps >= config.max_steps:
                break

        elapsed = time.perf_counter() - started
        if config.final_publish and self.staleness_steps():
            publish_latencies.append(self.publish())

        return PipelineReport(
            steps=steps,
            cadence_steps=config.publish_every_steps,
            publishes=len(publish_latencies),
            publish_latencies_s=publish_latencies,
            max_staleness_steps=max_staleness_steps,
            max_staleness_s=max_staleness_s,
            losses=losses,
            elapsed_s=elapsed,
            probe_stats=probe_tracker.summary() if len(probe_tracker) else None,
            serving_stats=self.engine.stats(),
            replica_stats=self.tier.stats() if self.tier is not None else None,
            executor_stats=self.model.store.executor.stats.as_dict(),
            final_snapshot_version=self.engine.snapshot_version,
            days_seen=days,
        )

    def _probe(self, probe_batch: Batch, probe_index: int, tracker: LatencyTracker) -> None:
        """Send one serve-while-train request and record its latency."""
        rows = probe_batch.categorical.shape[0]
        start = (probe_index * self.config.probe_rows) % rows
        stop = min(start + self.config.probe_rows, rows)
        numerical = None
        if probe_batch.numerical.shape[1]:
            numerical = probe_batch.numerical[start:stop]
        target = self.tier if self.tier is not None else self.engine
        pending = target.submit(probe_batch.categorical[start:stop], numerical)
        target.flush()
        tracker.record(pending.latency_s)
