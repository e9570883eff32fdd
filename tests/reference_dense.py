"""The built-in models' dense pass as the per-op graph it used to be.

``DLRM`` / ``WDL`` / ``DCN`` compute their dense network as one graph node
over hand-written array code.  The classes below keep the composed
``forward_dense`` bodies that code replaced — every op its own node of
``tests/reference_graph.py``, over the *same* parameter objects — as the
oracle the fused node must equal bit for bit (values, ``leaf.grad`` and
every ``param.grad``).  ``concat`` and ``batched_outer_interaction`` are the
two ops only these bodies use.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

import reference_graph as G
from reference_graph import ensure_tensor
from repro.models import DCN, DLRM, WDL
from repro.nn.tensor import Tensor, make_node


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        boundaries = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        pieces = np.split(grad, boundaries, axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate_grad(piece)  # a view of grad

    return make_node(out_data, tuple(tensors), backward)


def batched_outer_interaction(x: Tensor) -> Tensor:
    """Pairwise dot products between field embeddings, one op (the old ``F`` op)."""
    x = ensure_tensor(x)
    batch, fields, _ = x.shape
    gram = x.data @ np.ascontiguousarray(np.swapaxes(x.data, 1, 2))
    out_data = np.concatenate([gram[:, i, :i] for i in range(fields)], axis=1)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        if fields < 2:
            x._accumulate_grad(np.zeros_like(x.data), owned=True)
            return
        grad_gram = np.take(grad, _pair_of_gram_cell(fields), axis=1)
        grad_gram = grad_gram.reshape(batch, fields, fields)
        diagonal = np.arange(fields)
        grad_gram[:, diagonal, diagonal] = 0
        x._accumulate_grad(grad_gram @ x.data, owned=True)

    return make_node(out_data, (x,), backward)


@lru_cache(maxsize=16)
def _pair_of_gram_cell(fields: int) -> np.ndarray:
    rows, cols = np.tril_indices(fields, -1)
    pair = np.arange(rows.size)
    cells = np.zeros((fields, fields), dtype=np.intp)
    cells[rows, cols] = pair
    cells[cols, rows] = pair
    return cells.reshape(-1)


class _Reference:
    def __init__(self, model):
        self.model = model

    def numerical(self, numerical: np.ndarray) -> Tensor:
        return Tensor(np.asarray(numerical, dtype=self.model.dtype))

    def flat_features(self, embeddings: Tensor, numerical: np.ndarray) -> Tensor:
        model, batch = self.model, embeddings.shape[0]
        flat = G.reshape(embeddings, (batch, model.num_fields * model.dim))
        if model.num_numerical > 0:
            return concat([flat, self.numerical(numerical)], axis=1)
        return flat


class ReferenceDLRM(_Reference):
    def forward_dense(self, embeddings: Tensor, numerical: np.ndarray) -> Tensor:
        model, batch = self.model, embeddings.shape[0]
        if model.has_dense_field:
            dense_vector = G.mlp(model.bottom, self.numerical(numerical))
            dense_as_field = G.reshape(dense_vector, (batch, 1, model.dim))
            all_fields = concat([embeddings, dense_as_field], axis=1)
            interactions = batched_outer_interaction(all_fields)
            top_input = concat([dense_vector, interactions], axis=1)
        else:
            top_input = batched_outer_interaction(embeddings)
        return G.reshape(G.mlp(model.top, top_input), (batch,))


class ReferenceWDL(_Reference):
    def forward_dense(self, embeddings: Tensor, numerical: np.ndarray) -> Tensor:
        model = self.model
        features = self.flat_features(embeddings, numerical)
        logits = G.add(G.linear_layer(model.wide, features), G.mlp(model.deep, features))
        return G.reshape(logits, (embeddings.shape[0],))


class ReferenceDCN(_Reference):
    def forward_dense(self, embeddings: Tensor, numerical: np.ndarray) -> Tensor:
        model = self.model
        features = self.flat_features(embeddings, numerical)
        cross_out = G.cross_network(model.cross, features)
        deep_out = G.relu(G.mlp(model.deep, features))
        logits = G.linear_layer(model.output, concat([cross_out, deep_out], axis=1))
        return G.reshape(logits, (embeddings.shape[0],))


REFERENCES = {DLRM: ReferenceDLRM, WDL: ReferenceWDL, DCN: ReferenceDCN}


def reference_of(model) -> _Reference:
    """The per-op twin of ``model``, sharing its parameters."""
    return REFERENCES[type(model)](model)
