"""Serving: snapshot-backed inference, delta-fed replicas, traffic replay."""

from repro.serving.batcher import PendingPrediction
from repro.serving.delta import (
    STORE_SLOT,
    DeltaSnapshotPublisher,
    RowDelta,
    ShardUpdate,
    SnapshotPayload,
)
from repro.serving.engine import ServingEngine
from repro.serving.replica import ROUTER_POLICIES, Replica, ReplicaSet, ReplicaTier
from repro.serving.slo import SLOController
from repro.serving.stats import PERCENTILES, LatencyTracker
from repro.serving.traffic import (
    TRAFFIC_PATTERNS,
    Request,
    TrafficConfig,
    TrafficGenerator,
    WorkloadReport,
    run_workload,
)

__all__ = [
    "ServingEngine",
    "PendingPrediction",
    "LatencyTracker",
    "PERCENTILES",
    "DeltaSnapshotPublisher",
    "SnapshotPayload",
    "ShardUpdate",
    "RowDelta",
    "STORE_SLOT",
    "Replica",
    "ReplicaSet",
    "ReplicaTier",
    "ROUTER_POLICIES",
    "SLOController",
    "TrafficConfig",
    "TrafficGenerator",
    "TRAFFIC_PATTERNS",
    "Request",
    "WorkloadReport",
    "run_workload",
]
