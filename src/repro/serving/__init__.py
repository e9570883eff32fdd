"""Serving: snapshot-backed inference and delta-fed replicas."""

from repro.serving.batcher import PendingPrediction
from repro.serving.delta import DeltaSnapshotPublisher, ShardUpdate, SnapshotPayload
from repro.serving.engine import ServingEngine
from repro.serving.replica import Replica, ReplicaSet, ReplicaTier
from repro.serving.stats import PERCENTILES, LatencyTracker

__all__ = [
    "ServingEngine",
    "PendingPrediction",
    "LatencyTracker",
    "PERCENTILES",
    "DeltaSnapshotPublisher",
    "SnapshotPayload",
    "ShardUpdate",
    "Replica",
    "ReplicaSet",
    "ReplicaTier",
]
