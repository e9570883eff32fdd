"""Experiment runners reproducing every table and figure of the paper."""

from repro.experiments.common import (
    SCALES,
    RunConfig,
    ScaleSpec,
    World,
    build_dataset,
    build_embedding,
    build_model,
    grid,
    mean_rows,
    run_paired,
    run_single,
)
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec, list_experiments, run_experiment
from repro.experiments.reporting import ExperimentResult, format_table

__all__ = [
    "SCALES",
    "ScaleSpec",
    "build_dataset",
    "build_embedding",
    "build_model",
    "run_single",
    "World",
    "RunConfig",
    "grid",
    "run_paired",
    "mean_rows",
    "ExperimentResult",
    "format_table",
    "EXPERIMENTS",
    "ExperimentSpec",
    "list_experiments",
    "run_experiment",
]
