"""Compressed embedding layers: CAFE, CAFE-ML, and all paper baselines.

Every scheme has a name in one backend table (:func:`get_backend`) that the
factories below, the store builder and :class:`~repro.api.config.
SystemConfig` (``store.spec``) resolve.  What a scheme can do
beyond lookup and apply is what its class implements of the
:class:`CompressedEmbedding` contract (``state_dict``,
``merged_sketch``); a scheme of your own is built
directly and handed to :class:`~repro.store.sharded.ShardedEmbeddingStore`.
"""

from __future__ import annotations

import difflib
from typing import Callable, NamedTuple

import numpy as np

from repro.embeddings.ada_embed import AdaEmbed
from repro.embeddings.base import DEFAULT_DTYPE, CompressedEmbedding, TableBackedEmbedding
from repro.embeddings.cafe import CafeEmbedding
from repro.embeddings.cafe_ml import CafeMultiLevelEmbedding
from repro.embeddings.full import FullEmbedding
from repro.embeddings.hash_embedding import HashEmbedding
from repro.embeddings.memory import (
    MemoryBudget,
)
from repro.embeddings.mde import MixedDimensionEmbedding
from repro.embeddings.offline import OfflineSeparationEmbedding
from repro.embeddings.plan import FreeRowPool, PlanStats, RoutingPlan
from repro.embeddings.qr_embedding import QRTrickEmbedding
from repro.errors import UnknownBackendError


def _full_factory(num_features, dim, compression_ratio=1.0, **kwargs):
    # A full table ignores the compression ratio by definition.
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


_BACKENDS = {
    backend.name: backend
    for backend in (
        Backend("full", _full_factory),
        Backend("hash", _budget_factory(HashEmbedding)),
        Backend("qr", _budget_factory(QRTrickEmbedding)),
        Backend("adaembed", _budget_factory(AdaEmbed)),
        Backend("mde", _budget_factory(MixedDimensionEmbedding), requires=("field_cardinalities",)),
        Backend("cafe", _budget_factory(CafeEmbedding)),
        Backend("cafe_ml", _budget_factory(CafeMultiLevelEmbedding)),
        Backend("offline", _budget_factory(OfflineSeparationEmbedding), requires=("frequencies",)),
    )
}

#: Every backend name, in table order.
METHOD_NAMES = tuple(_BACKENDS)


def get_backend(name: str) -> Backend:
    """Look up a backend by (case-insensitive) name; raises
    :class:`~repro.errors.UnknownBackendError` naming the closest known name
    and listing them all."""
    backend = _BACKENDS.get(name.lower())
    if backend is None:
        # Match the part before any "[" too: "cafe[cr=8]" is an old
        # bracket-option spec of "cafe".
        stem = name.lower().partition("[")[0]
        suggestion = difflib.get_close_matches(stem, METHOD_NAMES, n=1)
        hint = f"; did you mean '{suggestion[0]}'?" if suggestion else ""
        raise UnknownBackendError(
            f"unknown embedding backend '{name}'{hint} (known backends: {sorted(_BACKENDS)})"
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
    spec: str = "cafe",
    compression_ratio: float = 1.0,
    num_shards: int = 1,
    optimizer: str = "sgd",
    learning_rate: float = 0.05,
    dtype: np.dtype | str = DEFAULT_DTYPE,
    seed: int = 0,
    **kwargs,
):
    """Build a :class:`~repro.store.sharded.ShardedEmbeddingStore` of
    backend ``spec`` over a dataset schema: one table over every field's id
    space, split ``num_shards`` ways.  The store layer is imported lazily to
    keep ``repro.embeddings`` free of a circular dependency on
    ``repro.store``.
    """
    from repro.store import ShardedEmbeddingStore

    if "field_cardinalities" in get_backend(spec).requires:
        kwargs.setdefault("field_cardinalities", schema.field_cardinalities)
    return ShardedEmbeddingStore.build(
        spec,
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
    "MemoryBudget",
    "METHOD_NAMES",
    "Backend",
    "get_backend",
    "create_embedding",
    "create_embedding_store",
]
