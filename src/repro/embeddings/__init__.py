"""Compressed embedding layers: CAFE, CAFE-ML, and all paper baselines.

Every scheme has a name in one backend table (:func:`get_backend`) that the
factories below, the store builders, field specs and
:class:`~repro.api.config.SystemConfig` resolve.  What a scheme can do
beyond lookup and apply is what its class implements of the
:class:`CompressedEmbedding` contract (``state_dict``, ``rebalance``,
``merged_sketch``); a scheme of your own is built
directly and handed to :class:`~repro.store.sharded.ShardedEmbeddingStore`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.api.spec import parse_spec
from repro.embeddings.ada_embed import AdaEmbed
from repro.embeddings.base import DEFAULT_DTYPE, CompressedEmbedding, TableBackedEmbedding
from repro.embeddings.cafe import CafeEmbedding
from repro.embeddings.cafe_ml import CafeMultiLevelEmbedding
from repro.embeddings.full import FullEmbedding
from repro.embeddings.hash_embedding import HashEmbedding
from repro.embeddings.memory import (
    MemoryBudget,
    max_compression_ratio_adaembed,
    max_compression_ratio_qr,
)
from repro.embeddings.mde import MixedDimensionEmbedding
from repro.embeddings.offline import OfflineSeparationEmbedding
from repro.embeddings.plan import FreeRowPool, PlanStats, RoutingPlan
from repro.embeddings.qr_embedding import QRTrickEmbedding
from repro.embeddings.quantized import QuantizedEmbedding
from repro.errors import UnknownBackendError


def _full_factory(num_features, dim, compression_ratio=1.0, hash_seed=None, **kwargs):
    # A full table ignores the compression ratio by definition, and has no
    # hash routing — a spec's [seed=N] option is legal but a no-op here.
    return FullEmbedding(num_features, dim, **kwargs)


def _budget_factory(cls):
    def factory(num_features, dim, compression_ratio=1.0, **kwargs):
        budget = MemoryBudget.from_compression_ratio(num_features, dim, compression_ratio)
        return cls.from_budget(budget, **kwargs)

    factory.__name__ = f"{cls.__name__}_from_budget"
    return factory


class Backend(NamedTuple):
    """One named embedding scheme."""

    name: str
    factory: Callable[..., CompressedEmbedding]
    #: Side inputs the factory needs beyond the common arguments; the store
    #: builders supply them from the schema.
    requires: tuple[str, ...] = ()
    #: Spec-string options beyond ``cr`` / ``shards`` / ``dim`` (which the
    #: store layer consumes): ``seed`` for hash-routing schemes.
    spec_options: tuple[str, ...] = ()


_BACKENDS = {
    backend.name: backend
    for backend in (
        Backend("full", _full_factory, spec_options=("seed",)),
        Backend("hash", _budget_factory(HashEmbedding), spec_options=("seed",)),
        Backend("qr", _budget_factory(QRTrickEmbedding)),
        Backend("adaembed", _budget_factory(AdaEmbed), spec_options=("seed",)),
        Backend("mde", _budget_factory(MixedDimensionEmbedding), requires=("field_cardinalities",)),
        Backend("cafe", _budget_factory(CafeEmbedding), spec_options=("seed",)),
        Backend("cafe_ml", _budget_factory(CafeMultiLevelEmbedding), spec_options=("seed",)),
        Backend(
            "offline",
            _budget_factory(OfflineSeparationEmbedding),
            requires=("frequencies",),
            spec_options=("seed",),
        ),
    )
}

#: Every backend name, in table order.
METHOD_NAMES = tuple(_BACKENDS)


def backend_names() -> tuple[str, ...]:
    """Names of every backend (:data:`METHOD_NAMES`)."""
    return METHOD_NAMES


def get_backend(name: str) -> Backend:
    """Look up a backend by (case-insensitive) name; raises
    :class:`~repro.errors.UnknownBackendError` listing the known names."""
    backend = _BACKENDS.get(name.lower())
    if backend is None:
        raise UnknownBackendError(
            f"unknown embedding backend '{name}'; known backends: {sorted(_BACKENDS)}"
        )
    return backend


def create_embedding(
    method: str,
    num_features: int,
    dim: int,
    compression_ratio: float = 1.0,
    field_cardinalities: list[int] | None = None,
    frequencies: np.ndarray | None = None,
    optimizer: str = "sgd",
    learning_rate: float = 0.05,
    dtype: np.dtype | str = DEFAULT_DTYPE,
    rng=None,
    **kwargs,
) -> CompressedEmbedding:
    """Factory building any named embedding scheme from a compression ratio.

    Parameters
    ----------
    method:
        Any name in :data:`METHOD_NAMES`.
    num_features, dim:
        Total categorical feature count and embedding dimension.
    compression_ratio:
        Target ``CR``; the uncompressed memory ``num_features * dim`` is
        divided by this value to obtain the float budget.
    field_cardinalities:
        Required by backends declaring ``requires=("field_cardinalities",)``
        (MDE's per-field dimension rule needs them).
    frequencies:
        Required by backends declaring ``requires=("frequencies",)`` (the
        offline-separation oracle).
    kwargs:
        Method-specific options forwarded to the backend factory.
    """
    backend = get_backend(method)
    side_inputs = {"field_cardinalities": field_cardinalities, "frequencies": frequencies}
    for requirement in backend.requires:
        value = side_inputs.get(requirement, kwargs.get(requirement))
        if value is None:
            raise ValueError(f"{backend.name} requires {requirement}")
        kwargs.setdefault(requirement, value)
    return backend.factory(
        num_features=num_features,
        dim=dim,
        compression_ratio=compression_ratio,
        optimizer=optimizer,
        learning_rate=learning_rate,
        dtype=dtype,
        rng=rng,
        **kwargs,
    )


def create_embedding_store(
    schema,
    spec: str | None = None,
    compression_ratio: float = 1.0,
    num_shards: int = 1,
    optimizer: str = "sgd",
    learning_rate: float = 0.05,
    dtype: np.dtype | str = DEFAULT_DTYPE,
    seed: int = 0,
    **kwargs,
):
    """Build an embedding *store* for a dataset schema from a spec string.

    ``spec`` is either a plain method name (``"cafe"`` — one uniform table,
    sharded ``num_shards`` ways) or a table-group spec with per-field-class
    backends (``"full:tiny,cafe:tail"`` — parsed once by
    :func:`repro.api.spec.parse_spec`), which builds a heterogeneous
    :class:`~repro.store.table_group.TableGroupStore`.  ``spec=None`` uses
    the schema's attached ``field_configs`` when present, else uniform CAFE.
    ``num_shards`` applies only to the uniform case; sharding a table-group
    store happens *within* a group (the ``[shards=N]`` spec option), so
    combining the two raises.  The store layer is imported lazily to keep
    ``repro.embeddings`` free of a circular dependency on ``repro.store``.
    """
    from repro.store import ShardedEmbeddingStore
    from repro.store.table_group import TableGroupStore

    parsed = parse_spec(spec) if spec is not None else None
    grouped = (parsed is not None and parsed.grouped) or (
        spec is None and getattr(schema, "field_configs", None) is not None
    )
    if grouped:
        if num_shards > 1:
            raise ValueError(
                "num_shards does not apply to a table-group store; shard within a "
                "group via the [shards=N] spec option or FieldConfig.num_shards"
            )
        return TableGroupStore.from_schema(
            schema,
            spec=spec,
            compression_ratio=compression_ratio,
            optimizer=optimizer,
            learning_rate=learning_rate,
            dtype=dtype,
            seed=seed,
            **kwargs,
        )
    entry = parsed.entries[0] if parsed is not None else None
    method = entry.backend if entry is not None else "cafe"
    backend = get_backend(method)
    if entry is not None and entry.options:
        # A bare "cafe[cr=8,shards=2]" spec configures the uniform store too.
        if "dim" in entry.options:
            raise ValueError(
                "the [dim=N] option needs a table-group store (narrow rows are "
                "projected up per group); give the entry a field class, e.g. "
                f"'{entry.backend}[dim={entry.option_int('dim')}]:all'"
            )
        compression_ratio = float(entry.options.get("cr", compression_ratio))
        num_shards = int(entry.options.get("shards", num_shards))
        if "seed" in entry.options:
            if "seed" not in backend.spec_options:
                raise ValueError(
                    f"backend '{method}' does not route by hash and takes no "
                    "[seed=N] spec option"
                )
            kwargs.setdefault("hash_seed", entry.option_int("seed"))
    if "field_cardinalities" in backend.requires:
        kwargs.setdefault("field_cardinalities", schema.field_cardinalities)
    return ShardedEmbeddingStore.build(
        method,
        num_features=schema.num_features,
        dim=schema.embedding_dim,
        num_shards=num_shards,
        compression_ratio=compression_ratio,
        seed=seed,
        optimizer=optimizer,
        learning_rate=learning_rate,
        dtype=dtype,
        **kwargs,
    )


__all__ = [
    "CompressedEmbedding",
    "TableBackedEmbedding",
    "FullEmbedding",
    "HashEmbedding",
    "QRTrickEmbedding",
    "AdaEmbed",
    "MixedDimensionEmbedding",
    "CafeEmbedding",
    "CafeMultiLevelEmbedding",
    "OfflineSeparationEmbedding",
    "QuantizedEmbedding",
    "MemoryBudget",
    "max_compression_ratio_qr",
    "max_compression_ratio_adaembed",
    "METHOD_NAMES",
    "Backend",
    "backend_names",
    "get_backend",
    "create_embedding",
    "create_embedding_store",
]
