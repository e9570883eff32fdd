"""The declarative configuration tree: one JSON file describes a whole run.

:class:`SystemConfig` nests one section per layer of the system —
``data`` (which synthetic preset, at what scale), ``store`` (embedding
backends, sharding), ``model`` (dense architecture), ``train``,
``serve`` and ``pipeline`` (cadences; the section is
:class:`repro.runtime.pipeline.PipelineConfig`, which
:class:`~repro.runtime.pipeline.OnlinePipeline` takes as it is) — plus one
global ``seed``.  The tree:

* **round-trips losslessly**: ``SystemConfig.from_json(cfg.to_json()) ==
  cfg``, and building a session from either side is bit-exact;
* **validates eagerly**: every section checks its values at construction
  time and raises :class:`~repro.errors.ConfigurationError` with the valid
  alternatives spelled out, so a typo fails at ``validate-config`` time,
  not twenty minutes into a run;
* **supports dotted overrides**: :func:`apply_overrides` implements the CLI
  ``--set store.num_shards=4`` syntax with type-aware coercion.

``store.spec`` names one backend, checked against the backend table
(:func:`repro.embeddings.get_backend`).
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.runtime.pipeline import PipelineConfig


# --------------------------------------------------------------------- #
# Generic dataclass <-> dict machinery
# --------------------------------------------------------------------- #
def _valid_keys(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def _unknown_key_error(cls, key: str, path: str) -> ConfigurationError:
    valid = _valid_keys(cls)
    suggestion = difflib.get_close_matches(key, valid, n=1)
    hint = f"; did you mean '{suggestion[0]}'?" if suggestion else ""
    dotted = f"{path}.{key}" if path else key
    return ConfigurationError(
        f"unknown config key '{dotted}'{hint} (valid keys under "
        f"'{path or 'the top level'}': {valid})"
    )


def _check_value_type(value, annotation, dotted: str) -> None:
    """JSON-level type check so a quoted number fails with the key named,
    not with a bare TypeError from a range comparison (or silently)."""
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        args = typing.get_args(annotation)
        if value is None and type(None) in args:
            return
        non_none = [a for a in args if a is not type(None)]
        annotation = non_none[0] if non_none else str
    if annotation is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif annotation is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif annotation is str:
        ok = isinstance(value, str)
    else:  # pragma: no cover - no other annotations in the tree
        return
    if not ok:
        raise ConfigurationError(
            f"config key '{dotted}' must be {annotation.__name__}, got "
            f"{type(value).__name__} ({value!r})"
        )


def _section_from_dict(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"config section '{path}' must be an object, got {type(data).__name__}"
        )
    hints = typing.get_type_hints(cls)
    valid = set(_valid_keys(cls))
    for key, value in data.items():
        if key not in valid:
            raise _unknown_key_error(cls, key, path)
        _check_value_type(value, hints[key], f"{path}.{key}" if path else key)
    return cls(**data)


def _section_to_dict(section) -> dict:
    return dataclasses.asdict(section)


def _coerce(text: str, annotation, dotted: str):
    """Parse a ``--set`` override string to the annotated field type."""
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if text.strip().lower() in ("none", "null"):
            return None
        annotation = args[0] if args else str
    try:
        if annotation is int:
            return int(text)
        if annotation is float:
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse override '{dotted}={text}': {exc}") from None


# --------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------- #
@dataclass
class DataConfig:
    """Which dataset preset feeds the run.

    ``dataset`` is one of the paper's presets; ``scale`` picks the workload
    size (cardinalities, samples/day, default batch size); ``num_days`` /
    ``samples_per_day`` override the preset's stream length.
    """

    dataset: str = "criteo"
    scale: str = "tiny"
    num_days: int | None = None
    samples_per_day: int | None = None

    def __post_init__(self):
        from repro.data.schema import PAPER_DATASET_STATS
        from repro.experiments.common import SCALES

        if self.dataset.lower() not in PAPER_DATASET_STATS:
            raise ConfigurationError(
                f"data.dataset '{self.dataset}' is not a known preset; expected one "
                f"of {sorted(PAPER_DATASET_STATS)}"
            )
        if self.scale not in SCALES:
            raise ConfigurationError(
                f"data.scale '{self.scale}' is not a known scale; expected one of "
                f"{sorted(SCALES)}"
            )
        if self.num_days is not None and self.num_days <= 0:
            raise ConfigurationError(f"data.num_days must be positive, got {self.num_days}")
        if self.samples_per_day is not None and self.samples_per_day <= 0:
            raise ConfigurationError(
                f"data.samples_per_day must be positive, got {self.samples_per_day}"
            )


@dataclass
class StoreConfig:
    """The embedding store: backend, budget, sharding.

    ``spec`` names the embedding backend (``"cafe"``, ``"hash"``, …) of the
    one table every field shares; ``num_shards`` splits that table's budget
    across hash-partitioned shards, which only ``cafe`` does (``build()``
    refuses any other backend at ``num_shards > 1``).  ``executor`` accepts
    only ``"serial"``; the key stays so configs that name it keep loading.
    """

    spec: str = "cafe"
    compression_ratio: float = 10.0
    num_shards: int = 1
    executor: str = "serial"
    optimizer: str = "sgd"
    learning_rate: float = 0.05
    dtype: str = "float32"

    def __post_init__(self):
        import numpy as np

        from repro.embeddings import get_backend
        from repro.errors import UnknownBackendError

        try:
            get_backend(self.spec)
        except UnknownBackendError as exc:
            raise UnknownBackendError(f"store.spec: {exc}") from None
        if not self.compression_ratio >= 1:
            raise ConfigurationError(
                f"store.compression_ratio must be at least 1 (1 is the full table), "
                f"got {self.compression_ratio}"
            )
        if self.num_shards <= 0:
            raise ConfigurationError(
                f"store.num_shards must be positive, got {self.num_shards}"
            )
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"store.learning_rate must be positive, got {self.learning_rate}"
            )
        if self.executor != "serial":
            raise ConfigurationError(
                f"store.executor '{self.executor}' is not a known executor; expected "
                "one of ['serial']"
            )
        from repro.nn.optim import ROW_OPTIMIZERS

        if self.optimizer not in ROW_OPTIMIZERS:
            raise ConfigurationError(
                f"store.optimizer: unknown row optimizer '{self.optimizer}'; expected one of "
                f"{sorted(ROW_OPTIMIZERS)}"
            )
        try:
            if np.dtype(self.dtype).kind != "f":
                raise TypeError(f"'{self.dtype}' is not a float dtype")
        except TypeError as exc:
            raise ConfigurationError(f"store.dtype: {exc}") from None


@dataclass
class ModelConfig:
    """Dense architecture on top of the store."""

    name: str = "dlrm"

    def __post_init__(self):
        from repro.models import MODEL_NAMES

        if self.name.lower() not in MODEL_NAMES:
            raise ConfigurationError(
                f"model.name '{self.name}' is not a known model; expected one of "
                f"{sorted(MODEL_NAMES)}"
            )


@dataclass
class TrainConfig:
    """Training-loop knobs (``batch_size=null`` means the scale default)."""

    batch_size: int | None = None
    max_steps: int | None = None
    dense_learning_rate: float = 0.01

    def __post_init__(self):
        if self.batch_size is not None and self.batch_size <= 0:
            raise ConfigurationError(
                f"train.batch_size must be positive, got {self.batch_size}"
            )
        if self.max_steps is not None and self.max_steps <= 0:
            raise ConfigurationError(
                f"train.max_steps must be positive, got {self.max_steps}"
            )
        if self.dense_learning_rate <= 0:
            raise ConfigurationError(
                f"train.dense_learning_rate must be positive, got "
                f"{self.dense_learning_rate}"
            )


@dataclass
class ServeConfig:
    """Offline closed-loop serving replay (the ``serve`` lifecycle / subcommand).

    ``requests`` single-row test requests are submitted one after another
    and flushed, through one micro-batching engine when ``replicas == 0``
    (the default) or, with ``replicas > 0``, through a delta-fed replica
    tier of that many replicas behind a round-robin router.
    """

    micro_batch: int = 64
    requests: int = 256
    warmup_steps: int = 20
    replicas: int = 0

    def __post_init__(self):
        if self.micro_batch <= 0:
            raise ConfigurationError(
                f"serve.micro_batch must be positive, got {self.micro_batch}"
            )
        if self.requests <= 0:
            raise ConfigurationError(f"serve.requests must be positive, got {self.requests}")
        if self.warmup_steps < 0:
            raise ConfigurationError(
                f"serve.warmup_steps must be non-negative, got {self.warmup_steps}"
            )
        if self.replicas < 0:
            raise ConfigurationError(
                f"serve.replicas must be non-negative (0 = single engine), "
                f"got {self.replicas}"
            )


_SECTIONS = {
    "data": DataConfig,
    "store": StoreConfig,
    "model": ModelConfig,
    "train": TrainConfig,
    "serve": ServeConfig,
    "pipeline": PipelineConfig,
}


@dataclass
class SystemConfig:
    """The whole system, declaratively.  See the module docstring."""

    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    store: StoreConfig = field(default_factory=StoreConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self):
        for name, cls in _SECTIONS.items():
            value = getattr(self, name)
            if isinstance(value, dict):
                setattr(self, name, _section_from_dict(cls, value, name))
            elif not isinstance(value, cls):
                raise ConfigurationError(
                    f"config section '{name}' must be a {cls.__name__} or an object, "
                    f"got {type(value).__name__}"
                )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        out: dict = {"seed": self.seed}
        for name in _SECTIONS:
            out[name] = _section_to_dict(getattr(self, name))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"a system config must be a JSON object, got {type(data).__name__}"
            )
        valid = set(_SECTIONS) | {"seed"}
        for key in data:
            if key not in valid:
                raise _unknown_key_error(cls, key, "")
        seed = data.get("seed", 0)
        _check_value_type(seed, int, "seed")
        kwargs: dict = {"seed": seed}
        for name, section_cls in _SECTIONS.items():
            if name in data:
                kwargs[name] = _section_from_dict(section_cls, data[name], name)
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SystemConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "SystemConfig":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot read config '{path}': {exc}") from None
        try:
            return cls.from_json(text)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> "SystemConfig":
        """Re-run every section's eager checks; returns ``self``.

        Sections validate at construction, so this exists for callers that
        mutated a config in place and want the same guarantees back.
        """
        _check_value_type(self.seed, int, "seed")
        for name, cls in _SECTIONS.items():
            _section_from_dict(cls, _section_to_dict(getattr(self, name)), name)
        return self


def load_config(path: str | Path) -> SystemConfig:
    """Read and validate a :class:`SystemConfig` from a JSON file."""
    return SystemConfig.load(path)


def apply_overrides(config: SystemConfig, assignments: list[str] | None) -> SystemConfig:
    """Apply dotted ``section.key=value`` overrides; returns a new config.

    This is the CLI ``--set`` implementation: ``apply_overrides(cfg,
    ["store.num_shards=4", "pipeline.max_steps=100"])``.  Values are coerced
    to the field's annotated type (``none``/``null`` clear optional
    fields).  Unknown sections or keys raise with the
    valid alternatives listed.
    """
    if not assignments:
        return config
    data = config.to_dict()
    for assignment in assignments:
        key, sep, value = assignment.partition("=")
        if not sep:
            raise ConfigurationError(
                f"override '{assignment}' is not of the form section.key=value"
            )
        parts = key.strip().split(".")
        if len(parts) == 1 and parts[0] == "seed":
            data["seed"] = _coerce(value, int, "seed")
            continue
        if len(parts) != 2:
            raise ConfigurationError(
                f"override key '{key}' must be 'seed' or 'section.key' with section "
                f"in {sorted(_SECTIONS)}"
            )
        section_name, field_name = parts
        section_cls = _SECTIONS.get(section_name)
        if section_cls is None:
            suggestion = difflib.get_close_matches(section_name, list(_SECTIONS), n=1)
            hint = f"; did you mean '{suggestion[0]}'?" if suggestion else ""
            raise ConfigurationError(
                f"unknown config section '{section_name}'{hint} (sections: "
                f"{sorted(_SECTIONS)})"
            )
        hints = typing.get_type_hints(section_cls)
        if field_name not in hints:
            raise _unknown_key_error(section_cls, field_name, section_name)
        data[section_name][field_name] = _coerce(value, hints[field_name], key)
    return SystemConfig.from_dict(data)
