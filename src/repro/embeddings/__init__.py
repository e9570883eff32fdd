"""Compressed embedding layers: CAFE, CAFE-ML, and all paper baselines.

Every scheme has a name in one backend table (:func:`get_backend`) that
:func:`create_embedding`, the store builder and :class:`~repro.api.config.
SystemConfig` (``store.spec``) resolve.  A scheme is built one way: its
class's ``from_budget`` sizes its tables from the budget and forwards every
other keyword to the constructor, where each option has its one default
(the row optimizer, learning rate and dtype are
:class:`TableBackedEmbedding`'s).  What a scheme can do
beyond lookup and apply is what its class implements of the
:class:`CompressedEmbedding` contract (``state_dict``); a scheme of your
own is built directly and handed to
:class:`~repro.store.sharded.ShardedEmbeddingStore`.
"""

from __future__ import annotations

import difflib
from typing import NamedTuple

import numpy as np

from repro.embeddings.ada_embed import AdaEmbed
from repro.embeddings.base import CompressedEmbedding, TableBackedEmbedding
from repro.embeddings.cafe import CafeEmbedding
from repro.embeddings.cafe_ml import CafeMultiLevelEmbedding
from repro.embeddings.full import FullEmbedding
from repro.embeddings.hash_embedding import HashEmbedding
from repro.embeddings.memory import MemoryBudget
from repro.embeddings.mde import MixedDimensionEmbedding
from repro.embeddings.offline import OfflineSeparationEmbedding
from repro.embeddings.qr_embedding import QRTrickEmbedding
from repro.errors import UnknownBackendError


class Backend(NamedTuple):
    """One named embedding scheme: its class, built from a budget by the
    class's ``from_budget``."""

    name: str
    cls: type[CompressedEmbedding]
    #: Side inputs ``from_budget`` needs beyond the budget; the store
    #: builders supply them from the schema.
    requires: tuple[str, ...] = ()


_BACKENDS = {
    backend.name: backend
    for backend in (
        Backend("full", FullEmbedding),
        Backend("hash", HashEmbedding),
        Backend("qr", QRTrickEmbedding),
        Backend("adaembed", AdaEmbed),
        Backend("mde", MixedDimensionEmbedding, requires=("field_cardinalities",)),
        Backend("cafe", CafeEmbedding),
        Backend("cafe_ml", CafeMultiLevelEmbedding),
        Backend("offline", OfflineSeparationEmbedding, requires=("frequencies",)),
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
        divided by this value to obtain the float budget.  A ``full`` table
        ignores it by definition.
    field_cardinalities:
        Required by backends declaring ``requires=("field_cardinalities",)``
        (MDE's per-field dimension rule needs them).
    frequencies:
        Required by backends declaring ``requires=("frequencies",)`` (the
        offline-separation oracle).
    kwargs:
        Forwarded to the backend's ``from_budget`` and on to its
        constructor (``rng``, ``optimizer``, ``learning_rate``, ``dtype`` and
        the scheme's own options), where each has its one default.
    """
    backend = get_backend(method)
    side_inputs = {"field_cardinalities": field_cardinalities, "frequencies": frequencies}
    for requirement in backend.requires:
        if side_inputs[requirement] is None:
            raise ValueError(f"{backend.name} requires {requirement}")
        kwargs[requirement] = side_inputs[requirement]
    if backend.cls is FullEmbedding:  # no budget: a full table is uncompressed by definition
        return FullEmbedding(num_features, dim, **kwargs)
    budget = MemoryBudget.from_compression_ratio(num_features, dim, compression_ratio)
    return backend.cls.from_budget(budget, **kwargs)


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
]
