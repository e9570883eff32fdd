"""The declarative front door end to end: config -> session -> lifecycle.

Builds one ``SystemConfig`` describing a 2-shard CAFE store (one table over
every field, its budget split across two hash-partitioned shards), proves
the JSON round trip is lossless, then drives the full Session lifecycle: train, snapshot,
checkpoint/restore, and the online train->serve pipeline.

Run with: PYTHONPATH=src python examples/declarative_session.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.api import SystemConfig, build

config = SystemConfig.from_dict(
    {
        "seed": 0,
        "data": {"dataset": "criteo", "scale": "tiny"},
        "store": {"spec": "cafe", "compression_ratio": 16.0, "num_shards": 2},
        "train": {"max_steps": 20},
        "pipeline": {"publish_every_steps": 5, "probe_every_steps": 2, "max_steps": 15},
    }
)

# The config is one JSON document; the round trip is lossless.
assert SystemConfig.from_json(config.to_json()) == config

with build(config) as session:
    plan = session.describe()
    store = plan["store"]
    print(f"store: {store['num_shards']} x {store['backend']}, "
          f"{store['memory_floats']} floats (CR {store['compression_ratio']})")

    report = session.train()
    print(f"trained {report['train']['steps']} steps, "
          f"test AUC {report['train']['test_auc']}")

    # Snapshots are O(1) copy-on-write: frozen even while training continues.
    snapshot = session.snapshot()
    probe_ids = session.dataset.test_batch(num_samples=4).categorical
    frozen = snapshot.lookup(probe_ids).copy()
    session.train(max_steps=5)
    assert np.array_equal(snapshot.lookup(probe_ids), frozen)

    # Checkpoint and restore into a freshly built session: bit-exact.
    with tempfile.TemporaryDirectory() as tmp:
        path = session.checkpoint(Path(tmp) / "session.npz")
        with build(config) as restored:
            restored.restore(path)
            assert np.array_equal(
                restored.store.lookup(probe_ids), session.store.lookup(probe_ids)
            )
    print("checkpoint round trip: bit-exact")

# The pipeline lifecycle on a fresh session (publishes snapshots as it trains).
with build(config) as session:
    report = session.run_pipeline()
    pipe = report["pipeline"]
    print(f"pipeline: {pipe['steps']} steps, {pipe['publishes']} publishes, "
          f"staleness within cadence: {pipe['staleness_within_cadence']}")

print("declarative session example OK")
