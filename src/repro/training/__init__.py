"""Training harness: trainer, metrics, checkpointing, latency measurement."""

from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.latency import LatencyReport, measure_latency, measure_sketch_throughput
from repro.training.metrics import log_loss, recall_at_k, roc_auc
from repro.training.trainer import Trainer, TrainingHistory, train_and_evaluate

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "Trainer",
    "TrainingHistory",
    "train_and_evaluate",
    "roc_auc",
    "log_loss",
    "recall_at_k",
    "LatencyReport",
    "measure_latency",
    "measure_sketch_throughput",
]
