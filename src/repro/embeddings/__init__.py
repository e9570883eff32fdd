"""Compressed embedding layers: CAFE, CAFE-ML, and all paper baselines.

Every scheme registers itself in the :mod:`repro.api.registry` backend
capability registry; the factories below resolve names there, so
third-party backends added via :func:`repro.api.registry.register_backend`
work everywhere a built-in name does (uniform stores, sharded stores,
table-group specs, :class:`~repro.api.config.SystemConfig`).
"""

from __future__ import annotations

import numpy as np

from repro.api import registry as _registry
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


def _register_builtins() -> None:
    # (name, factory, class, capability flags, requires, spec options, blurb)
    builtins = [
        ("full", _full_factory, FullEmbedding,
         dict(supports_state_dict=True), (), ("seed",),
         "uncompressed per-feature table"),
        ("hash", _budget_factory(HashEmbedding), HashEmbedding,
         dict(supports_state_dict=True), (), ("seed",),
         "single hash-shared table"),
        ("qr", _budget_factory(QRTrickEmbedding), QRTrickEmbedding,
         dict(), (), (), "quotient-remainder composed tables"),
        ("adaembed", _budget_factory(AdaEmbed), AdaEmbed,
         dict(supports_rebalance=True), (), ("seed",),
         "importance-based row reassignment"),
        ("mde", _budget_factory(MixedDimensionEmbedding), MixedDimensionEmbedding,
         dict(trainable_projection=True), ("field_cardinalities",), (),
         "per-field mixed dimensions with trained up-projection"),
        ("cafe", _budget_factory(CafeEmbedding), CafeEmbedding,
         dict(supports_rebalance=True, supports_state_dict=True), (), ("seed",),
         "HotSketch-routed hot/cold separation (the paper's method)"),
        ("cafe_ml", _budget_factory(CafeMultiLevelEmbedding), CafeMultiLevelEmbedding,
         dict(supports_rebalance=True, supports_state_dict=True), (), ("seed",),
         "multi-level CAFE (hot / warm / cold tiers)"),
        ("offline", _budget_factory(OfflineSeparationEmbedding), OfflineSeparationEmbedding,
         dict(), ("frequencies",), ("seed",), "oracle frequency-separated baseline"),
    ]
    for name, factory, klass, caps, requires, spec_options, description in builtins:
        _registry.register_backend(
            name,
            factory,
            backend_class=klass,
            requires=requires,
            spec_options=spec_options,
            description=description,
            overwrite=True,
            **caps,
        )


_register_builtins()

#: Canonical built-in method names (registration order).  Third-party
#: backends registered later are visible through
#: :func:`repro.api.registry.backend_names`, not this constant.
METHOD_NAMES = (
    "full",
    "hash",
    "qr",
    "adaembed",
    "mde",
    "cafe",
    "cafe_ml",
    "offline",
)


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
    """Factory building any registered embedding scheme from a compression ratio.

    Parameters
    ----------
    method:
        Any name in :func:`repro.api.registry.backend_names` (the built-ins
        are :data:`METHOD_NAMES`).
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
    backend = _registry.get_backend(method)
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
    executor=None,
    optimizer: str = "sgd",
    learning_rate: float = 0.05,
    dtype: np.dtype | str = DEFAULT_DTYPE,
    seed: int = 0,
    grad_exchange: str = "dense",
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
    combining the two raises.  ``grad_exchange`` selects the sharded store's
    trainer→shard gradient wire format (``"dense"`` or ``"sketched"``, see
    :mod:`repro.store.grad_exchange`) and applies only to the uniform case.
    The store layer is imported lazily to keep ``repro.embeddings`` free of
    a circular dependency on ``repro.store``.
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
        if grad_exchange != "dense":
            raise ValueError(
                "grad_exchange='sketched' applies to the uniform sharded store; "
                "table-group stores exchange gradients per group (dense only)"
            )
        return TableGroupStore.from_schema(
            schema,
            spec=spec,
            compression_ratio=compression_ratio,
            optimizer=optimizer,
            learning_rate=learning_rate,
            dtype=dtype,
            seed=seed,
            executor=executor,
            **kwargs,
        )
    entry = parsed.entries[0] if parsed is not None else None
    method = entry.backend if entry is not None else "cafe"
    backend = _registry.get_backend(method)
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
        executor=executor,
        optimizer=optimizer,
        learning_rate=learning_rate,
        dtype=dtype,
        grad_exchange=grad_exchange,
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
    "create_embedding",
    "create_embedding_store",
]
