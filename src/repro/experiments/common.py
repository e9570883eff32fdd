"""Shared infrastructure for the per-figure experiment runners.

Every end-to-end experiment follows the same recipe: build a scaled synthetic
dataset preset, construct an embedding method at a target compression ratio,
train one chronological epoch, and record the online metric (average training
loss) and the offline metric (testing AUC on the last day).  This module owns
that recipe (:func:`run_single`) and the one shape every comparison figure
takes over it: a :class:`World`, a list of :class:`RunConfig`, and seeds, run
by :func:`run_paired` (one world per seed, every config on it) and reduced to
table rows by :func:`mean_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.data.drift import RotatingDrift
from repro.data.schema import DatasetSchema, make_preset
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.embeddings import create_embedding
from repro.embeddings.base import CompressedEmbedding
from repro.errors import MemoryBudgetError
from repro.models import create_model
from repro.models.base import RecommendationModel
from repro.training.trainer import TrainingHistory, train_and_evaluate
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass(frozen=True)
class ScaleSpec:
    """Workload size of an experiment run.

    ``tiny`` keeps benchmark/CI runtimes in seconds; ``small`` is the default
    for interactive use; ``medium`` gives smoother curves at a few minutes per
    configuration.
    """

    name: str
    base_cardinality: int
    samples_per_day: int
    batch_size: int
    test_samples: int
    max_days: int | None = None


SCALES: dict[str, ScaleSpec] = {
    "tiny": ScaleSpec(
        "tiny", base_cardinality=300, samples_per_day=3000, batch_size=128, test_samples=2048, max_days=6
    ),
    "small": ScaleSpec(
        "small", base_cardinality=800, samples_per_day=6000, batch_size=256, test_samples=4096, max_days=10
    ),
    "medium": ScaleSpec(
        "medium", base_cardinality=3000, samples_per_day=20000, batch_size=512, test_samples=8192, max_days=None
    ),
}


def get_scale(scale: str | ScaleSpec) -> ScaleSpec:
    if isinstance(scale, ScaleSpec):
        return scale
    if scale not in SCALES:
        raise ValueError(f"unknown scale '{scale}'; expected one of {sorted(SCALES)}")
    return SCALES[scale]


def build_dataset(
    dataset_name: str,
    scale: str | ScaleSpec = "tiny",
    seed: int = 0,
    num_days: int | None = None,
    drift=None,
    samples_per_day: int | None = None,
) -> SyntheticCTRDataset:
    """Create the scaled synthetic preset for one of the paper's datasets.

    ``num_days`` overrides the preset's day count; otherwise the scale's
    ``max_days`` caps it so that the larger presets (CriteoTB has 24 days)
    stay affordable at benchmark scale.  ``samples_per_day`` overrides the
    scale's day length.
    """
    spec = get_scale(scale)
    schema = make_preset(dataset_name, base_cardinality=spec.base_cardinality, seed=seed)
    if num_days is not None:
        schema.num_days = num_days
    elif spec.max_days is not None:
        schema.num_days = min(schema.num_days, spec.max_days)
    if samples_per_day is None:
        samples_per_day = spec.samples_per_day
    config = SyntheticConfig(samples_per_day=samples_per_day, seed=seed)
    return SyntheticCTRDataset(schema, config=config, drift=drift)


def build_embedding(
    method: str,
    dataset: SyntheticCTRDataset,
    compression_ratio: float,
    seed: int = 0,
    optimizer: str = "adagrad",
    learning_rate: float = 0.1,
    dtype: str = "float32",
    **kwargs,
) -> CompressedEmbedding:
    """Instantiate an embedding method for ``dataset`` at a compression ratio.

    Methods that need side information receive it automatically: MDE gets the
    field cardinalities, the offline-separation oracle gets the exact
    training-stream frequencies.
    """
    schema = dataset.schema
    extra = dict(kwargs)
    if method == "offline" and "frequencies" not in extra:
        extra["frequencies"] = dataset.feature_frequencies()
    return create_embedding(
        method,
        num_features=schema.num_features,
        dim=schema.embedding_dim,
        compression_ratio=compression_ratio,
        field_cardinalities=schema.field_cardinalities,
        optimizer=optimizer,
        learning_rate=learning_rate,
        dtype=dtype,
        rng=np.random.default_rng(seed + 13),
        **extra,
    )


def build_model(
    model_name: str,
    embedding: CompressedEmbedding,
    schema: DatasetSchema,
    seed: int = 0,
) -> RecommendationModel:
    return create_model(
        model_name,
        embedding,
        num_fields=schema.num_fields,
        num_numerical=schema.num_numerical,
        rng=np.random.default_rng(seed + 17),
    )


@dataclass
class RunOutcome:
    """Metrics of one (method, compression ratio, model, dataset) run."""

    method: str
    compression_ratio: float
    achieved_ratio: float
    train_loss: float
    test_auc: float
    test_log_loss: float
    history: TrainingHistory
    feasible: bool = True
    failure_reason: str = ""


def run_single(
    dataset: SyntheticCTRDataset,
    method: str,
    compression_ratio: float,
    model_name: str = "dlrm",
    scale: str | ScaleSpec = "tiny",
    seed: int = 0,
    eval_every: int | None = None,
    embedding_kwargs: dict | None = None,
    days: list[int] | None = None,
) -> RunOutcome:
    """Train one configuration end to end; infeasible budgets are reported,
    not raised, because the paper's figures simply omit those points.

    ``days`` restricts training to those days (default: every training day).
    Every run trains its rows with Adagrad at 0.1 in float32.
    """
    spec = get_scale(scale)
    try:
        embedding = build_embedding(
            method, dataset, compression_ratio, seed=seed, **(embedding_kwargs or {})
        )
    except MemoryBudgetError as exc:
        logger.info("%s infeasible at CR %.0fx: %s", method, compression_ratio, exc)
        return RunOutcome(
            method=method,
            compression_ratio=compression_ratio,
            achieved_ratio=float("nan"),
            train_loss=float("nan"),
            test_auc=float("nan"),
            test_log_loss=float("nan"),
            history=TrainingHistory(),
            feasible=False,
            failure_reason=str(exc),
        )
    model = build_model(model_name, embedding, dataset.schema, seed=seed)
    stream = dataset.training_stream(spec.batch_size, days=days)
    test_batch = dataset.test_batch(num_samples=spec.test_samples)
    results = train_and_evaluate(model, stream, test_batch, eval_every=eval_every)
    return RunOutcome(
        method=method,
        compression_ratio=compression_ratio,
        achieved_ratio=embedding.compression_ratio(),
        train_loss=results["train_loss"],
        test_auc=results["test_auc"],
        test_log_loss=results["test_log_loss"],
        history=results["history"],
    )




@dataclass(frozen=True)
class World:
    """A synthetic preset plus its :func:`build_dataset` keywords; the seed
    that builds it is the run's.

    ``swap_fraction`` replaces the preset's drift with a
    :class:`~repro.data.drift.RotatingDrift` of that fraction, seeded as the
    default drift is (``seed + 1``), so the drift varies with the seed too.
    """

    preset: str
    num_days: int | None = None
    swap_fraction: float | None = None

    def build(self, scale: str | ScaleSpec, seed: int) -> SyntheticCTRDataset:
        drift = None
        if self.swap_fraction is not None:
            drift = RotatingDrift(swap_fraction=self.swap_fraction, seed=seed + 1)
        return build_dataset(self.preset, scale=scale, seed=seed, num_days=self.num_days, drift=drift)


@dataclass(frozen=True)
class RunConfig:
    """One run of a figure on a given world and seed: what :func:`run_single`
    takes beside them.  ``embedding_kwargs`` is a tuple of ``(name, value)``
    pairs so that a config can key a dict."""

    method: str
    compression_ratio: float
    model_name: str = "dlrm"
    embedding_kwargs: tuple[tuple[str, Any], ...] = ()
    days: tuple[int, ...] | None = None
    eval_every: int | None = None


def grid(methods, compression_ratios, model_name: str = "dlrm") -> list[RunConfig]:
    """The method × compression-ratio configs; ``full`` runs at CR 1 only."""
    return [
        RunConfig(method, ratio, model_name)
        for method in methods
        for ratio in compression_ratios
        if method != "full" or ratio == 1.0
    ]


def run_paired(
    world: World,
    configs: list[RunConfig],
    scale: str | ScaleSpec,
    seeds: tuple[int, ...],
) -> dict[tuple[RunConfig, int], RunOutcome]:
    """Run every config on one world per seed, keyed by ``(config, seed)``.

    Seed ``s`` builds the world and seeds every model trained on it, so all
    configs of one seed share that world and a comparison of two configs is
    paired by world.
    """
    outcomes = {}
    for seed in seeds:
        dataset = world.build(scale, seed)
        for config in configs:
            outcomes[config, seed] = run_single(
                dataset,
                config.method,
                config.compression_ratio,
                model_name=config.model_name,
                scale=scale,
                seed=seed,
                eval_every=config.eval_every,
                embedding_kwargs=dict(config.embedding_kwargs),
                days=config.days,
            )
    return outcomes


#: The metrics of a table row and the digits each is rounded to.
ROW_METRICS = (("achieved_ratio", 1), ("train_loss", 4), ("test_auc", 4), ("test_log_loss", 4))


def mean_rows(outcomes: dict[tuple[RunConfig, int], RunOutcome]) -> dict[RunConfig, dict]:
    """One table row per config, in run order.

    A config with a feasible seed gets the means over its feasible seeds and
    their count (``num_seeds``).  An infeasible one (e.g. AdaEmbed beyond its
    memory floor) keeps a NaN row with ``feasible=False``, so the tables show
    the same gaps the paper reports.
    """
    grouped: dict[RunConfig, list[RunOutcome]] = {}
    for (config, _), outcome in outcomes.items():
        grouped.setdefault(config, []).append(outcome)
    rows = {}
    for config, runs in grouped.items():
        feasible = [run for run in runs if run.feasible]
        means = {
            metric: round(float(np.mean([getattr(run, metric) for run in feasible])), digits)
            if feasible
            else float("nan")
            for metric, digits in ROW_METRICS
        }
        rows[config] = {
            "method": config.method,
            "compression_ratio": config.compression_ratio,
            **means,
            "feasible": bool(feasible),
            "num_seeds": len(feasible),
        }
    return rows


def mean_curve(outcomes: dict[tuple[RunConfig, int], RunOutcome], config: RunConfig) -> np.ndarray:
    """The mean of ``config``'s smoothed loss curves over its feasible seeds."""
    curves = [
        outcome.history.smoothed_losses()
        for (run, _), outcome in outcomes.items()
        if run == config and outcome.feasible
    ]
    return np.mean(curves, axis=0)
