"""Data pipeline: schemas, synthetic streams, Criteo reader, statistics."""

from repro.data.criteo import CriteoFileReader, criteo_schema
from repro.data.drift import DriftModel, RotatingDrift
from repro.data.schema import (
    PAPER_DATASET_STATS,
    DatasetSchema,
    FieldSchema,
    make_preset,
)
from repro.data.stats import frequency_skew_summary, kl_divergence, kl_divergence_matrix
from repro.data.stream import Batch, iterate_batches
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset

__all__ = [
    "FieldSchema",
    "DatasetSchema",
    "make_preset",
    "PAPER_DATASET_STATS",
    "Batch",
    "iterate_batches",
    "SyntheticCTRDataset",
    "SyntheticConfig",
    "DriftModel",
    "RotatingDrift",
    "kl_divergence",
    "kl_divergence_matrix",
    "frequency_skew_summary",
    "CriteoFileReader",
    "criteo_schema",
]
