"""Serving quickstart: sharded embedding store + snapshot micro-batch serving.

This example shows the production-shaped path layered on top of the paper's
CAFE embedding:

1. build a `ShardedEmbeddingStore` — CAFE shards hash-partitioned over the
   global feature-id space, stacked into one table (each shard's HotSketch
   is a bucket range of the stack's one sketch);
2. train a DLRM against the store (the trainer talks to the store interface,
   a single shard would be bit-exact with the bare embedding layer);
3. take a copy-on-write snapshot and serve single-example requests through
   the micro-batching engine while training continues on the live store;
4. refresh the snapshot to publish the newly trained parameters.

Run with:  python examples/serving_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.data import SyntheticConfig, SyntheticCTRDataset, make_preset
from repro.models import create_model
from repro.serving import ServingEngine
from repro.store import ShardedEmbeddingStore
from repro.training import Trainer

NUM_SHARDS = 4
COMPRESSION_RATIO = 50.0
BATCH_SIZE = 128
MICRO_BATCH = 32
SEED = 0


def main() -> None:
    schema = make_preset("criteo", base_cardinality=300, seed=SEED)
    schema.num_days = 3
    dataset = SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=2000, seed=SEED))

    store = ShardedEmbeddingStore.build(
        "cafe",
        num_features=schema.num_features,
        dim=schema.embedding_dim,
        num_shards=NUM_SHARDS,
        compression_ratio=COMPRESSION_RATIO,
        seed=SEED,
    )
    print(f"store: {store.num_shards} CAFE shards, {store.memory_floats()} floats total, "
          f"CR {store.compression_ratio():.1f}x")

    model = create_model(
        "dlrm", store, num_fields=schema.num_fields, num_numerical=schema.num_numerical, rng=SEED
    )
    trainer = Trainer(model)
    for batch in dataset.day_batches(0, BATCH_SIZE):
        trainer.train_step(batch)
    print(f"warmed up: {trainer.global_step} training steps, "
          f"plan reuse {trainer.embedding_plan_stats()['reuse_rate']:.2f}")

    # Snapshot + serve.  The engine freezes the dense network and the store
    # parameters; training after this point does not affect served answers.
    engine = ServingEngine(model, max_batch_size=MICRO_BATCH)
    requests = dataset.test_batch(256)
    handles = [
        engine.submit(requests.categorical[i], requests.numerical[i])
        for i in range(len(requests))
    ]
    engine.flush()
    first_answers = np.concatenate([h.result() for h in handles])

    # Train another day on the live store — copy-on-write makes this safe.
    for batch in dataset.day_batches(1, BATCH_SIZE):
        trainer.train_step(batch)
    stale_answers = engine.predict(requests.categorical, requests.numerical)
    assert np.array_equal(stale_answers, first_answers)  # snapshot is frozen
    print(f"served {engine.requests_served} requests from snapshot v{engine.snapshot_version} "
          f"(frozen while training advanced to step {trainer.global_step})")

    # Publish the new parameters.
    engine.refresh()
    fresh_answers = engine.predict(requests.categorical, requests.numerical)
    drift = float(np.abs(fresh_answers - stale_answers[: len(fresh_answers)]).mean())
    stats = engine.stats()
    print(f"refreshed to snapshot v{engine.snapshot_version}: mean prediction shift {drift:.4f}")
    print(f"latency: p50 {stats['p50_ms']:.2f} ms  p95 {stats['p95_ms']:.2f} ms  "
          f"p99 {stats['p99_ms']:.2f} ms over {stats['count']} requests "
          f"({stats['avg_micro_batch_rows']:.0f} rows/micro-batch)")

    snapshot = engine.snapshot
    merged = store.merged_sketch()
    print(f"served from one frozen {type(snapshot.table).__name__} of {snapshot.memory_floats()} "
          f"floats; global hot view: {len(merged.top_k(10))} of the top-10 features, merged "
          f"from the {store.num_shards} shards' sketches")


if __name__ == "__main__":
    main()
