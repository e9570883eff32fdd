"""The declarative configuration tree: one JSON file describes a whole run.

:class:`SystemConfig` nests one section per layer of the system —
``data`` (which synthetic preset, at what scale), ``store`` (embedding
backends, sharding), ``model`` (dense architecture), ``train``,
``serve`` and ``pipeline`` (cadences) — plus one global ``seed``.  The tree:

* **round-trips losslessly**: ``SystemConfig.from_json(cfg.to_json()) ==
  cfg``, and building a session from either side is bit-exact;
* **validates eagerly**: every section checks its values at construction
  time and raises :class:`~repro.errors.ConfigurationError` with the valid
  alternatives spelled out, so a typo fails at ``validate-config`` time,
  not twenty minutes into a run;
* **supports dotted overrides**: :func:`apply_overrides` implements the CLI
  ``--set store.num_shards=4`` syntax with type-aware coercion.

Spec strings inside ``store.spec`` are parsed by the single shared parser
(:mod:`repro.api.spec`) and backend names are checked against the
capability registry, so a registered third-party backend is immediately
legal in a config file.
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
        origin = typing.get_origin(annotation)
    expected_name = getattr(annotation, "__name__", str(annotation))
    if annotation is bool:
        ok = isinstance(value, bool)
    elif annotation is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif annotation is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif annotation is str:
        ok = isinstance(value, str)
    elif annotation is list or origin is list:
        ok = isinstance(value, list)
        expected_name = "list"
    else:  # pragma: no cover - no other annotations in the tree
        return
    if not ok:
        raise ConfigurationError(
            f"config key '{dotted}' must be {expected_name}, got "
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
        origin = typing.get_origin(annotation)
    try:
        if annotation is bool:
            lowered = text.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: '{text}'")
        if annotation is int:
            return int(text)
        if annotation is float:
            return float(text)
        if annotation is str:
            return text
        # Structured fields (lists of field configs, ...) take JSON.
        return json.loads(text)
    except (ValueError, json.JSONDecodeError) as exc:
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
    """The embedding store: backends, budgets, sharding.

    ``spec`` is a field-spec string — a plain backend name (``"cafe"``,
    optionally with ``[cr=...,shards=...]`` options) for one uniform table,
    or a table-group spec (``"full:tiny,cafe[cr=16]:tail"``) for a
    heterogeneous per-field store.  ``fields`` alternatively gives explicit
    per-field configs (one object per schema field, in order, with the keys
    of :class:`repro.data.schema.FieldConfig`); set ``spec`` to ``null``
    when using it.  ``num_shards`` shards the uniform case; table-group
    stores shard within a group via the ``[shards=N]`` option instead.
    ``executor`` accepts only ``"serial"``, the one shard executor; the key
    stays so configs that name it keep loading.
    """

    spec: str | None = "cafe"
    compression_ratio: float = 10.0
    num_shards: int = 1
    executor: str = "serial"
    optimizer: str = "sgd"
    learning_rate: float = 0.05
    dtype: str = "float32"
    fields: list | None = None

    def __post_init__(self):
        import numpy as np

        from repro.api import registry, spec as spec_module

        if self.compression_ratio <= 0:
            raise ConfigurationError(
                f"store.compression_ratio must be positive, got {self.compression_ratio}"
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
        from repro.nn.optim import make_row_optimizer

        try:
            # Full validation (names, bracket options, ranges), state-free:
            # row optimizers allocate lazily on first use.
            make_row_optimizer(self.optimizer, self.learning_rate)
        except ValueError as exc:
            raise ConfigurationError(f"store.optimizer: {exc}") from None
        try:
            if np.dtype(self.dtype).kind != "f":
                raise TypeError(f"'{self.dtype}' is not a float dtype")
        except TypeError as exc:
            raise ConfigurationError(f"store.dtype: {exc}") from None
        if self.fields is not None:
            if self.spec is not None:
                raise ConfigurationError(
                    "store.fields and store.spec are mutually exclusive; set "
                    "store.spec to null when listing explicit per-field configs"
                )
            self._check_fields()
            return
        if self.spec is None:
            raise ConfigurationError("store.spec must be set (or give store.fields)")
        from repro.errors import DataError

        try:
            parsed = spec_module.parse_spec(self.spec, known_backends=registry.backend_names())
        except DataError as exc:
            raise ConfigurationError(f"store.spec: {exc}") from None
        if parsed.grouped and self.num_shards > 1:
            raise ConfigurationError(
                "store.num_shards does not apply to a table-group spec; use the "
                "[shards=N] option on the group entry instead"
            )

    def _check_fields(self) -> None:
        from repro.api import registry
        from repro.data.schema import FieldConfig

        if not isinstance(self.fields, list) or not self.fields:
            raise ConfigurationError("store.fields must be a non-empty list of objects")
        valid = {f.name for f in dataclasses.fields(FieldConfig)}
        for position, entry in enumerate(self.fields):
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"store.fields[{position}] must be an object, got "
                    f"{type(entry).__name__}"
                )
            unknown = set(entry) - valid
            if unknown:
                raise ConfigurationError(
                    f"store.fields[{position}] has unknown keys {sorted(unknown)}; "
                    f"valid keys: {sorted(valid)}"
                )
            if "field" not in entry:
                raise ConfigurationError(
                    f"store.fields[{position}] needs a 'field' name"
                )
            backend = entry.get("backend", "cafe")
            if backend.lower() not in registry.backend_names():
                raise ConfigurationError(
                    f"store.fields[{position}] backend '{backend}' is not registered; "
                    f"registered backends: {sorted(registry.backend_names())}"
                )

    @property
    def grouped(self) -> bool:
        """Whether this config builds a table-group store."""
        if self.fields is not None:
            return True
        from repro.api import spec as spec_module

        return spec_module.parse_spec(self.spec).grouped

    def field_configs(self):
        """Explicit ``fields`` entries as :class:`~repro.data.schema.
        FieldConfig` objects (``None`` when ``fields`` is unset)."""
        if self.fields is None:
            return None
        from repro.data.schema import FieldConfig

        return [FieldConfig(**entry) for entry in self.fields]


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
    dense_optimizer: str = "adam"
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
        if self.dense_optimizer.lower() not in ("sgd", "adagrad", "adam"):
            raise ConfigurationError(
                f"train.dense_optimizer '{self.dense_optimizer}' is not a known "
                "optimizer; expected one of ['adagrad', 'adam', 'sgd']"
            )


@dataclass
class ServeConfig:
    """Offline serving replay (the ``serve`` lifecycle / subcommand).

    With ``replicas == 0`` (the default) the classic single-engine replay
    runs.  Setting ``replicas > 0`` switches to the replicated tier: a
    delta-snapshot publisher feeds N replicas behind a router, and the
    replay becomes a generated traffic trace (``traffic`` names one of the
    :data:`repro.serving.traffic.TRAFFIC_PATTERNS` presets) driven through
    the virtual-time workload simulator.  ``slo_target_p99_ms > 0`` arms
    the micro-batch SLO controller against that target.
    """

    micro_batch: int = 64
    requests: int = 256
    warmup_steps: int = 20
    replicas: int = 0
    policy: str = "round_robin"
    rebase_every: int = 8
    traffic: str = "zipf"
    traffic_duration_s: float = 2.0
    traffic_rate: float = 2000.0
    slo_target_p99_ms: float = 0.0

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
        if self.policy not in ("round_robin", "least_loaded"):
            raise ConfigurationError(
                f"serve.policy must be 'round_robin' or 'least_loaded', "
                f"got '{self.policy}'"
            )
        if self.rebase_every < 0:
            raise ConfigurationError(
                f"serve.rebase_every must be non-negative (0 = never rebase, "
                f"1 = always full), got {self.rebase_every}"
            )
        if self.traffic not in ("uniform", "zipf", "zipf-diurnal", "zipf-burst"):
            raise ConfigurationError(
                f"serve.traffic '{self.traffic}' is not a known pattern; expected "
                "one of ['uniform', 'zipf', 'zipf-burst', 'zipf-diurnal']"
            )
        if self.traffic_duration_s <= 0:
            raise ConfigurationError(
                f"serve.traffic_duration_s must be positive, got {self.traffic_duration_s}"
            )
        if self.traffic_rate <= 0:
            raise ConfigurationError(
                f"serve.traffic_rate must be positive, got {self.traffic_rate}"
            )
        if self.slo_target_p99_ms < 0:
            raise ConfigurationError(
                f"serve.slo_target_p99_ms must be non-negative (0 disables the "
                f"controller), got {self.slo_target_p99_ms}"
            )


@dataclass
class PipelineConfig:
    """Online train→serve pipeline cadences (the ``pipeline`` lifecycle)."""

    publish_every_steps: int = 10
    probe_every_steps: int = 5
    micro_batch: int = 64
    probe_rows: int = 1
    max_steps: int | None = None
    final_publish: bool = True

    def __post_init__(self):
        if self.publish_every_steps <= 0:
            raise ConfigurationError(
                f"pipeline.publish_every_steps must be positive, got "
                f"{self.publish_every_steps}"
            )
        if self.probe_every_steps < 0:
            raise ConfigurationError(
                f"pipeline.probe_every_steps must be non-negative, got "
                f"{self.probe_every_steps}"
            )
        if self.micro_batch <= 0:
            raise ConfigurationError(
                f"pipeline.micro_batch must be positive, got {self.micro_batch}"
            )
        if self.probe_rows <= 0:
            raise ConfigurationError(
                f"pipeline.probe_rows must be positive, got {self.probe_rows}"
            )
        if self.max_steps is not None and self.max_steps <= 0:
            raise ConfigurationError(
                f"pipeline.max_steps must be positive, got {self.max_steps}"
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

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

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
    to the field's annotated type (``none``/``null`` clear optional fields;
    structured fields take JSON).  Unknown sections or keys raise with the
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
