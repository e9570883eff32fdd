"""The one parser for per-field table-group spec strings.

A *field spec* is the compact notation every entry point uses to describe
which embedding backend serves which fields::

    "cafe"                                  one uniform CAFE table
    "full:tiny,cafe:tail"                   tiny fields uncompressed, tails on CAFE
    "full:tiny,cafe[cr=16]:tail,hash[cr=8,dim=4]:mid"

Each comma-separated entry is ``backend[options]:class`` where ``class`` is
one of :data:`FIELD_CLASSES` — the ``tiny`` / ``mid`` / ``tail`` size classes
(see :func:`repro.data.schema.classify_fields`), ``rest`` (every field not
matched by an earlier entry) or ``all``.  Options in square brackets are
``cr`` (compression ratio), ``dim`` (narrow native dimension, projected up),
``seed`` (group hash seed) and ``shards`` (shards within the group).

Historically the string was parsed in :mod:`repro.data.schema` while the
store factory re-derived groupedness with its own ``":" in spec`` check.
This module is now the single implementation: :func:`parse_spec` tokenizes
and validates, :func:`resolve_field_configs` binds a parsed spec to a
dataset schema, and both ``repro.data.schema.field_configs_from_spec`` and
``repro.embeddings.create_embedding_store`` delegate here.

This module deliberately imports nothing heavier than ``repro.errors`` at
module scope so every layer (data, embeddings, store, api) can use it
without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DataError

#: Size classes a field can fall into when a table-group spec is resolved.
FIELD_CLASSES = ("tiny", "mid", "tail", "rest", "all")

#: Cardinality at or below which a field counts as ``tiny`` by default.
DEFAULT_TINY_MAX = 100

#: Cardinality at or above which a field counts as ``tail`` by default.
DEFAULT_TAIL_MIN = 2000

#: Option keys an entry's ``[...]`` block may set.
SPEC_OPTIONS = ("cr", "dim", "seed", "shards")


@dataclass(frozen=True)
class SpecEntry:
    """One ``backend[options]:class`` entry of a field spec."""

    backend: str
    field_class: str
    options: dict = field(default_factory=dict)
    #: Whether the entry spelled out an explicit ``:class`` suffix (a bare
    #: backend name means ``all`` but marks the spec as *uniform*).
    explicit_class: bool = True

    def option_int(self, key: str) -> int | None:
        return int(self.options[key]) if key in self.options else None


@dataclass(frozen=True)
class ParsedSpec:
    """Validated parse of one spec string."""

    raw: str
    entries: tuple[SpecEntry, ...]

    @property
    def grouped(self) -> bool:
        """Whether the spec asks for a per-field :class:`~repro.store.
        table_group.TableGroupStore` rather than one uniform table.

        A spec is grouped exactly when it routes by field class — any entry
        carries an explicit ``:class`` suffix.  A bare backend name
        (``"cafe"``, ``"hash[cr=8]"``) stays the uniform single-table case.
        """
        return any(entry.explicit_class for entry in self.entries)

    @property
    def backends(self) -> tuple[str, ...]:
        return tuple(entry.backend for entry in self.entries)


def _split_entries(spec: str) -> list[str]:
    """Split on commas, but not the commas inside ``[...]`` option blocks."""
    raw_entries, depth, start = [], 0, 0
    for position, char in enumerate(spec):
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif char == "," and depth == 0:
            raw_entries.append(spec[start:position])
            start = position + 1
    raw_entries.append(spec[start:])
    return raw_entries


def parse_spec(spec: str, known_backends: tuple[str, ...] | None = None) -> ParsedSpec:
    """Tokenize and validate a field spec string.

    Raises :class:`~repro.errors.DataError` with an actionable message on
    malformed entries, unknown field classes or unknown option keys.  When
    ``known_backends`` is given (e.g. :func:`repro.embeddings.
    backend_names`), backend names are validated against it too — the eager
    check :class:`~repro.api.config.StoreConfig` runs at config time.
    """
    if not isinstance(spec, str):
        raise DataError(f"field spec must be a string, got {type(spec).__name__}")
    entries: list[SpecEntry] = []
    for raw in _split_entries(spec):
        raw = raw.strip()
        if not raw:
            continue
        backend_part, sep, class_name = raw.partition(":")
        explicit_class = bool(sep)
        class_name = class_name.strip().lower() if sep else "all"
        backend_part = backend_part.strip()
        options: dict[str, float] = {}
        if "[" in backend_part:
            if not backend_part.endswith("]"):
                raise DataError(f"malformed spec entry '{raw}': unclosed '['")
            backend_name, _, option_text = backend_part[:-1].partition("[")
            for pair in option_text.split(","):
                key, sep_eq, value = pair.partition("=")
                if not sep_eq:
                    raise DataError(f"malformed spec option '{pair}' in entry '{raw}'")
                key = key.strip().lower()
                try:
                    options[key] = float(value)
                except ValueError:
                    raise DataError(
                        f"spec option '{key}' in entry '{raw}' needs a numeric value, "
                        f"got '{value.strip()}'"
                    ) from None
            backend_part = backend_name.strip()
        if class_name not in FIELD_CLASSES:
            raise DataError(
                f"unknown field class '{class_name}' in spec entry '{raw}'; "
                f"expected one of {FIELD_CLASSES}"
            )
        unknown = set(options) - set(SPEC_OPTIONS)
        if unknown:
            raise DataError(f"unknown spec options {sorted(unknown)} in entry '{raw}'")
        if not backend_part:
            raise DataError(f"spec entry '{raw}' names no backend")
        backend = backend_part.lower()
        if known_backends is not None and backend not in known_backends:
            raise DataError(
                f"unknown backend '{backend}' in spec entry '{raw}'; known "
                f"backends: {sorted(known_backends)}"
            )
        entries.append(
            SpecEntry(
                backend=backend,
                field_class=class_name,
                options=options,
                explicit_class=explicit_class,
            )
        )
    if not entries:
        raise DataError(f"table-group spec '{spec}' contains no entries")
    if len(entries) > 1 and not any(entry.explicit_class for entry in entries):
        raise DataError(
            f"spec '{spec}' lists multiple backends but no field classes, so only "
            "the first would ever apply; add ':class' suffixes (e.g. "
            f"'{entries[0].backend}:tiny,{entries[1].backend}:rest') or use a "
            "single backend"
        )
    return ParsedSpec(raw=spec, entries=tuple(entries))


def is_grouped_spec(spec: str | None) -> bool:
    """Whether ``spec`` selects a table-group store (vs. a uniform table)."""
    if spec is None:
        return False
    return parse_spec(spec).grouped


def resolve_field_configs(
    schema,
    parsed: ParsedSpec,
    compression_ratio: float = 1.0,
    tiny_max: int = DEFAULT_TINY_MAX,
    tail_min: int = DEFAULT_TAIL_MIN,
) -> list:
    """Bind a parsed spec to a schema: one ``FieldConfig`` per field.

    Fields are classified by :func:`repro.data.schema.classify_fields` with
    the given thresholds; entries claim their class in order, ``rest`` /
    ``all`` claim everything unclaimed, and fields matched by no entry fall
    to the *last* entry's backend.  ``compression_ratio`` is the default
    ``cr`` for entries that do not set one.
    """
    # Late import: repro.data.schema itself delegates to this module.
    from repro.data.schema import FieldConfig, classify_fields

    classes = classify_fields(schema, tiny_max=tiny_max, tail_min=tail_min)
    configs: list[FieldConfig | None] = [None] * schema.num_fields
    last = parsed.entries[-1]
    ordered = parsed.entries + (
        SpecEntry(last.backend, "rest", last.options),  # implicit fallback
    )
    for entry in ordered:
        for index, field_schema in enumerate(schema.fields):
            if configs[index] is not None:
                continue
            if entry.field_class in ("all", "rest") or classes[index] == entry.field_class:
                configs[index] = FieldConfig(
                    field=field_schema.name,
                    backend=entry.backend,
                    dim=entry.option_int("dim"),
                    compression_ratio=float(entry.options.get("cr", compression_ratio)),
                    hash_seed=entry.option_int("seed"),
                    num_shards=int(entry.options.get("shards", 1)),
                )
    # The implicit "rest" fallback guarantees every slot is assigned.
    return [config for config in configs if config is not None]


def field_configs_from_spec(
    schema,
    spec: str,
    compression_ratio: float = 1.0,
    tiny_max: int = DEFAULT_TINY_MAX,
    tail_min: int = DEFAULT_TAIL_MIN,
) -> list:
    """Parse ``spec`` and resolve it against ``schema`` in one call."""
    return resolve_field_configs(
        schema,
        parse_spec(spec),
        compression_ratio=compression_ratio,
        tiny_max=tiny_max,
        tail_min=tail_min,
    )
