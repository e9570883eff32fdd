"""Recommendation model architectures (DLRM, WDL, DCN)."""

from __future__ import annotations

from repro.embeddings.base import CompressedEmbedding
from repro.models.base import RecommendationModel
from repro.models.dcn import DCN
from repro.models.dlrm import DLRM
from repro.models.wdl import WDL

MODEL_NAMES = ("dlrm", "wdl", "dcn")


def create_model(
    name: str,
    embedding: CompressedEmbedding,
    num_fields: int,
    num_numerical: int,
    rng=None,
) -> RecommendationModel:
    """Factory used by experiment configurations (``"dlrm"``, ``"wdl"``, ``"dcn"``).

    The dense network's precision is not an argument: every model computes
    in ``np.promote_types(embedding.dtype, float32)`` (see ``models/base.py``).
    """
    lowered = name.lower()
    if lowered == "dlrm":
        return DLRM(embedding, num_fields, num_numerical, rng=rng)
    if lowered == "wdl":
        return WDL(embedding, num_fields, num_numerical, rng=rng)
    if lowered == "dcn":
        return DCN(embedding, num_fields, num_numerical, rng=rng)
    raise ValueError(f"unknown model '{name}'; expected one of {MODEL_NAMES}")


__all__ = ["RecommendationModel", "DLRM", "WDL", "DCN", "MODEL_NAMES", "create_model"]
