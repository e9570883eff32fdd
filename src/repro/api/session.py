"""Compile a :class:`~repro.api.config.SystemConfig` into a wired system.

:func:`build` is the single construction path: it resolves the dataset
preset, builds the sharded embedding store, wires the model and trainer,
and returns a :class:`Session` whose lifecycle methods run every workload
of ``python -m repro``:

=================  ======================================================
``session.train()``         one (partial) chronological epoch + eval
``session.serve()``         warm-up train → publish → closed-loop replay
``session.run_pipeline()``  online train→publish→probe loop
``session.snapshot()``      O(1) copy-on-write store snapshot
``session.checkpoint(p)``   dense + sparse state to one ``.npz``
``session.restore(p)``      the inverse
``session.describe()``      the full resolved plan as one dictionary
=================  ======================================================

Construction is deterministic in ``config.seed``: building the same config
twice (or a JSON round-trip of it) yields bit-identical stores, models and
first-step losses — the property the config round-trip tests pin down.
"""

from __future__ import annotations

import time
from typing import Any

from repro.api.config import SystemConfig


def build(config: SystemConfig | dict | str) -> "Session":
    """Compile ``config`` (a :class:`SystemConfig`, a plain dict, or a path
    to a JSON file) into a ready :class:`Session`."""
    if isinstance(config, str):
        config = SystemConfig.load(config)
    elif isinstance(config, dict):
        config = SystemConfig.from_dict(config)
    return Session(config)


class Session:
    """A fully wired system: dataset → store → model → trainer (+ engines).

    The serving engine and the online pipeline are created on demand by
    :meth:`serve` / :meth:`run_pipeline`; everything else is built eagerly
    so configuration errors that need a schema (e.g. a memory budget the
    backend cannot meet) surface at build time.
    """

    def __init__(self, config: SystemConfig):
        from repro.experiments.common import build_dataset, get_scale
        from repro.models import create_model
        from repro.training.trainer import Trainer

        config.validate()
        self.config = config
        self.scale = get_scale(config.data.scale)
        self.dataset = build_dataset(
            config.data.dataset,
            scale=config.data.scale,
            seed=config.seed,
            num_days=config.data.num_days,
            samples_per_day=config.data.samples_per_day,
        )
        self.schema = self.dataset.schema
        self.store = self._build_store()
        self.model = create_model(
            config.model.name,
            self.store,
            num_fields=self.schema.num_fields,
            num_numerical=self.schema.num_numerical,
            rng=config.seed,
        )
        self.batch_size = config.train.batch_size or self.scale.batch_size
        self.trainer = Trainer(self.model, dense_learning_rate=config.train.dense_learning_rate)

    def _build_store(self):
        from repro.store import ShardedEmbeddingStore

        config = self.config
        return ShardedEmbeddingStore.build(
            config.store.spec,
            num_features=self.schema.num_features,
            dim=self.schema.embedding_dim,
            num_shards=config.store.num_shards,
            compression_ratio=config.store.compression_ratio,
            optimizer=config.store.optimizer,
            learning_rate=config.store.learning_rate,
            dtype=config.store.dtype,
            seed=config.seed,
            field_cardinalities=self.schema.field_cardinalities,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle: training
    # ------------------------------------------------------------------ #
    def train(self, max_steps: int | None = None) -> dict[str, Any]:
        """Train over the chronological day-stream; returns a JSON-ready report.

        ``max_steps`` (or ``config.train.max_steps``) bounds the run; the
        held-out last day supplies the test AUC.  Calling ``train`` twice
        continues from where the first call stopped (same trainer, same
        stream position semantics as re-iterating the stream).
        """
        config = self.config
        max_steps = max_steps if max_steps is not None else config.train.max_steps
        started = time.perf_counter()
        history = self.trainer.train_stream(
            self.dataset.training_stream(self.batch_size),
            max_steps=max_steps,
        )
        elapsed = time.perf_counter() - started
        test_batch = self.dataset.test_batch(num_samples=self.scale.test_samples)
        report = {
            "steps": len(history.losses),
            "steps_per_s": round(len(history.losses) / elapsed, 2) if elapsed else 0.0,
            "avg_train_loss": round(history.average_loss, 5),
            "test_auc": round(self.trainer.evaluate_auc(test_batch), 4),
            "global_step": self.trainer.global_step,
            "plan_stats": self.trainer.embedding_plan_stats(),
        }
        return {"config": config.to_dict(), "store": self.store.describe(), "train": report}

    # ------------------------------------------------------------------ #
    # Lifecycle: serving replay
    # ------------------------------------------------------------------ #
    def serve(self) -> dict[str, Any]:
        """Warm-up train, publish, replay requests closed-loop.

        The zero-to-serving path of ``python -m repro serve``:
        ``serve.warmup_steps`` training steps build non-trivial store state,
        then ``serve.requests`` single-row requests are submitted one after
        another and flushed.  The server is a micro-batching engine over a
        fresh snapshot or, with ``serve.replicas > 0``, the replicated tier
        (see :meth:`_replica_tier`).
        """
        from repro.serving.engine import ServingEngine

        config = self.config
        if config.serve.warmup_steps:
            self.trainer.train_stream(
                self.dataset.training_stream(self.batch_size),
                max_steps=config.serve.warmup_steps,
            )
        if config.serve.replicas:
            server = self._replica_tier()
        else:
            server = ServingEngine(self.model, max_batch_size=config.serve.micro_batch)
        replay = self.dataset.test_batch(num_samples=config.serve.requests)
        started = time.perf_counter()
        for row in range(len(replay)):
            numerical = replay.numerical[row] if self.schema.num_numerical else None
            server.submit(replay.categorical[row], numerical)
        server.flush()
        elapsed = time.perf_counter() - started
        stats = server.stats()
        stats["requests_per_s"] = round(len(replay) / elapsed, 1)
        return {"config": config.to_dict(), "store": self.store.describe(), "serving": stats}

    def _replica_tier(self):
        """A ``serve.replicas``-wide tier serving a view built from deltas.

        Three train→publish rounds follow the bootstrap full snapshot, so
        the replay is answered from replicas that applied real deltas.
        """
        from repro.serving.replica import ReplicaTier

        serve = self.config.serve
        tier = ReplicaTier(
            self.model, num_replicas=serve.replicas, max_batch_size=serve.micro_batch
        )
        tier.publish()  # the full base snapshot every delta chains from
        delta_steps = max(1, serve.warmup_steps // 4 or 2)
        for _ in range(3):
            self.trainer.train_stream(
                self.dataset.training_stream(self.batch_size), max_steps=delta_steps
            )
            tier.publish()
        return tier

    # ------------------------------------------------------------------ #
    # Lifecycle: online pipeline
    # ------------------------------------------------------------------ #
    def run_pipeline(self) -> dict[str, Any]:
        """Run the online train→publish→probe loop over the day-stream."""
        from repro.runtime.pipeline import OnlinePipeline

        config = self.config
        pipeline = OnlinePipeline(self.model, config=config.pipeline, trainer=self.trainer)
        probe_batch = self.dataset.test_batch(
            num_samples=max(config.pipeline.serving_micro_batch, 64)
        )
        report = pipeline.run(
            self.dataset.training_stream(self.batch_size), probe_batch=probe_batch
        )
        return {
            "config": config.to_dict(),
            "store": self.store.describe(),
            "pipeline": report.as_dict(),
        }

    # ------------------------------------------------------------------ #
    # Lifecycle: snapshots and checkpoints
    # ------------------------------------------------------------------ #
    def snapshot(self):
        """O(1) copy-on-write snapshot of the live store (serving view)."""
        return self.store.snapshot()

    def checkpoint(self, path) -> Any:
        """Write dense, dense-optimizer and sparse state to one ``.npz``."""
        from repro.training.checkpoint import save_checkpoint

        return save_checkpoint(
            path,
            self.model,
            step=self.trainer.global_step,
            optimizer=self.trainer.dense_optimizer,
        )

    def restore(self, path) -> int:
        """Restore a :meth:`checkpoint`; returns (and adopts) its step."""
        from repro.training.checkpoint import load_checkpoint

        step = load_checkpoint(path, self.model, optimizer=self.trainer.dense_optimizer)
        self.trainer.global_step = step
        return step

    # ------------------------------------------------------------------ #
    # Introspection / teardown
    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, Any]:
        """The full resolved plan: config, dataset, store, model, backends.

        The store section is the live ``store.describe()``; the
        ``registry`` section lists every backend the session could have
        used, with the side inputs it needs from the schema.
        """
        from repro.embeddings import METHOD_NAMES, get_backend

        optimizer = self.trainer.dense_optimizer
        return {
            "config": self.config.to_dict(),
            "data": {
                "dataset": self.schema.name,
                "num_fields": self.schema.num_fields,
                "num_features": self.schema.num_features,
                "num_numerical": self.schema.num_numerical,
                "embedding_dim": self.schema.embedding_dim,
                "num_days": self.schema.num_days,
                "batch_size": self.batch_size,
            },
            "store": self.store.describe(),
            "model": {
                "name": self.config.model.name,
                "dense_parameters": self.model.dense_parameter_count(),
                "dense_dtype": str(self.model.dtype),
                "dense_optimizer": {
                    "kind": optimizer.kind,
                    "step_count": optimizer.step_count,
                    "restored": optimizer.restored,
                },
            },
            "registry": [
                {"name": b.name, "requires": list(b.requires)}
                for b in map(get_backend, METHOD_NAMES)
            ],
        }

    def close(self) -> None:
        """End the session.  It holds no worker, file or handle today, so
        this releases nothing; it keeps ``with build(config) as session:``
        blocks valid."""

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
