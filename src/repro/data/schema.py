"""Dataset schemas and the paper's dataset presets (Table 2).

A schema describes the categorical fields (name + cardinality), the number of
numerical fields, and the embedding dimension.  Global feature ids are the
concatenation of all fields' id spaces: feature ``j`` of field ``f`` has
global id ``offset_f + j``, which is what every embedding layer consumes and
what lets CAFE share one sketch and one exclusive table across fields (§5.3,
"Other design details").

Two kinds of presets are provided:

* :data:`PAPER_DATASET_STATS` — the exact statistics of Table 2, used to
  regenerate that table;
* :func:`make_preset` — scaled-down synthetic presets with the same field
  structure (field count, numerical count, dimension, Zipf skew) that the
  experiments in this repository actually train on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DataError

__all__ = ["FieldSchema", "DatasetSchema", "make_preset"]


@dataclass(frozen=True)
class FieldSchema:
    """One categorical field."""

    name: str
    cardinality: int

    def __post_init__(self):
        if self.cardinality <= 0:
            raise DataError(f"field '{self.name}' must have positive cardinality")


@dataclass
class DatasetSchema:
    """Structure of a CTR dataset."""

    name: str
    fields: list[FieldSchema]
    num_numerical: int
    embedding_dim: int
    num_days: int = 1
    zipf_exponent: float = 1.05
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.fields:
            raise DataError("a dataset schema needs at least one categorical field")
        if self.num_numerical < 0:
            raise DataError("num_numerical must be non-negative")
        if self.embedding_dim <= 0:
            raise DataError("embedding_dim must be positive")
        if self.num_days <= 0:
            raise DataError("num_days must be positive")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def num_fields(self) -> int:
        return len(self.fields)

    @property
    def field_cardinalities(self) -> list[int]:
        return [f.cardinality for f in self.fields]

    @property
    def num_features(self) -> int:
        """Total unique categorical features across all fields (``n``)."""
        return int(sum(self.field_cardinalities))

    @property
    def field_offsets(self) -> np.ndarray:
        """Global-id offset of each field (length ``num_fields + 1``)."""
        return np.concatenate([[0], np.cumsum(self.field_cardinalities)]).astype(np.int64)

    @property
    def embedding_parameters(self) -> int:
        """Uncompressed embedding-table size ``n * d``."""
        return self.num_features * self.embedding_dim

    def to_global_ids(self, per_field_ids: np.ndarray) -> np.ndarray:
        """Convert per-field ids ``(batch, fields)`` to global ids."""
        per_field_ids = np.asarray(per_field_ids, dtype=np.int64)
        if per_field_ids.ndim != 2 or per_field_ids.shape[1] != self.num_fields:
            raise DataError(
                f"expected shape (batch, {self.num_fields}), got {per_field_ids.shape}"
            )
        return per_field_ids + self.field_offsets[:-1][None, :]


#: Table 2 of the paper, verbatim (samples, features, fields, dim, params).
PAPER_DATASET_STATS = {
    "avazu": {"samples": 40_428_967, "features": 9_449_445, "fields": 22, "dim": 16, "params": "150M"},
    "criteo": {"samples": 45_840_617, "features": 33_762_577, "fields": 26, "dim": 16, "params": "540M"},
    "kdd12": {"samples": 149_639_105, "features": 54_689_798, "fields": 11, "dim": 64, "params": "3.5B"},
    "criteotb": {"samples": 4_373_472_329, "features": 204_184_588, "fields": 26, "dim": 128, "params": "26B"},
}

#: Structural parameters of the scaled presets used by the experiments.
#: The paper measures Zipf exponents of 1.05/1.1 on the full-size datasets
#: (Figure 3).  At ~1000x smaller cardinality the same exponent would spread
#: the head mass far more evenly, so the scaled presets use a larger exponent
#: chosen to keep the fraction of lookups carried by the hottest ~1% of
#: features comparable to the real datasets (see DESIGN.md).
_PRESET_STRUCTURE = {
    # name: (fields, numerical, dim, days, zipf)
    "avazu": (22, 0, 16, 10, 1.25),
    "criteo": (26, 13, 16, 7, 1.25),
    "kdd12": (11, 0, 16, 1, 1.25),
    "criteotb": (26, 13, 32, 24, 1.3),
}


def make_preset(name: str, base_cardinality: int, seed: int) -> DatasetSchema:
    """Build a scaled-down synthetic preset mirroring one of the paper datasets.

    Field cardinalities are drawn log-uniformly around ``base_cardinality`` so
    that, like the real datasets, a few fields dominate the total feature
    count; ``base_cardinality`` is what trades fidelity for runtime.
    """
    lowered = name.lower()
    if lowered not in _PRESET_STRUCTURE:
        raise DataError(f"unknown preset '{name}'; expected one of {sorted(_PRESET_STRUCTURE)}")
    num_fields, num_numerical, dim, days, zipf = _PRESET_STRUCTURE[lowered]
    # Derive a per-preset offset deterministically (``hash()`` of a string is
    # randomized per process and would make presets differ between runs).
    name_offset = int(sum(ord(c) * (31**i) for i, c in enumerate(lowered)) % (2**31))
    rng = np.random.default_rng(seed + name_offset)
    # Log-uniform cardinalities between base/10 and base*10.
    log_base = np.log10(base_cardinality)
    cards = np.round(10 ** rng.uniform(log_base - 1, log_base + 1, size=num_fields)).astype(int)
    cards = np.maximum(cards, 10)
    fields = [FieldSchema(name=f"{lowered}_c{i}", cardinality=int(c)) for i, c in enumerate(cards)]
    return DatasetSchema(
        name=lowered,
        fields=fields,
        num_numerical=num_numerical,
        embedding_dim=dim,
        num_days=days,
        zipf_exponent=zipf,
        metadata={"paper_stats": PAPER_DATASET_STATS[lowered]},
    )
