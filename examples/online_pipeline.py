"""Online pipeline quickstart: continuous train→serve with snapshot cadence.

This example runs the full sharded online-learning loop:

1. build a 4-shard `ShardedEmbeddingStore` (its CAFE shards are stacked, so
   one pass trains all four — see docs/store.md);
2. hand the model to an `OnlinePipeline`, which trains over the
   chronological day-stream and publishes a copy-on-write snapshot to its
   `ServingEngine` every `publish_every_steps` training steps, and ships the
   same cadence as versioned full/delta payloads to a `ReplicaTier` of two
   replicas (bootstrapped with a full snapshot before the first step);
3. fire serve-while-train probe requests through the replicas between
   publishes and report snapshot staleness, publish latency, probe latency
   and the replicas' versions at the end.

Run with:  python examples/online_pipeline.py
"""

from __future__ import annotations

from repro.data import SyntheticConfig, SyntheticCTRDataset, make_preset
from repro.models import create_model
from repro.runtime import OnlinePipeline, PipelineConfig
from repro.serving import ReplicaTier
from repro.store import ShardedEmbeddingStore

NUM_SHARDS = 4
COMPRESSION_RATIO = 20.0
BATCH_SIZE = 128
PUBLISH_EVERY = 8
PROBE_EVERY = 3
NUM_REPLICAS = 2
SEED = 0


def main() -> None:
    schema = make_preset("criteo", base_cardinality=300, seed=SEED)
    schema.num_days = 4
    dataset = SyntheticCTRDataset(schema, config=SyntheticConfig(samples_per_day=1500, seed=SEED))

    store = ShardedEmbeddingStore.build(
        "cafe",
        num_features=schema.num_features,
        dim=schema.embedding_dim,
        num_shards=NUM_SHARDS,
        compression_ratio=COMPRESSION_RATIO,
        seed=SEED,
    )
    model = create_model(
        "dlrm", store, num_fields=schema.num_fields, num_numerical=schema.num_numerical, rng=SEED
    )
    print(f"store: {store.num_shards} CAFE shards stacked into one allocation")

    pipeline = OnlinePipeline(
        model,
        config=PipelineConfig(
            publish_every_steps=PUBLISH_EVERY,
            probe_every_steps=PROBE_EVERY,
            serving_micro_batch=32,
        ),
        tier=ReplicaTier(model, num_replicas=NUM_REPLICAS, max_batch_size=32),
    )
    report = pipeline.run(
        dataset.training_stream(BATCH_SIZE),
        probe_batch=dataset.test_batch(256),
    )

    summary = report.as_dict()
    print(f"trained {summary['steps']} steps over days {summary['days_seen']} "
          f"at {summary['steps_per_s']:.0f} steps/s (avg loss {summary['avg_train_loss']:.4f})")
    print(f"published {summary['publishes']} snapshots (cadence {summary['cadence_steps']} steps): "
          f"publish p50 {summary['publish_p50_ms']:.2f} ms, max {summary['publish_max_ms']:.2f} ms")
    print(f"snapshot staleness never exceeded {summary['max_staleness_steps']} steps "
          f"(cadence bound holds: {summary['staleness_within_cadence']})")
    probe = summary["probe"]
    print(f"serve-while-train probes: p50 {probe['p50_ms']:.2f} ms, "
          f"p95 {probe['p95_ms']:.2f} ms over {probe['count']} requests")
    replicas = summary["replicas"]
    publisher = replicas["publisher"]
    print(f"{replicas['num_replicas']} replicas at versions {replicas['versions']} "
          f"({publisher['full_publishes']} full + {publisher['delta_publishes']} delta payloads)")

    assert report.staleness_within_cadence, "cadence bound violated"
    assert replicas["versions"] == [publisher["version"]] * NUM_REPLICAS, "a replica fell behind"


if __name__ == "__main__":
    main()
