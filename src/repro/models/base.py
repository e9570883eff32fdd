"""Base class of every recommendation model: the built-in DLRM / WDL / DCN
and a custom one (``examples/custom_model_integration.py``).

A model owns (a) an embedding *store* — a :class:`repro.store.
ShardedEmbeddingStore`, built from a bare :class:`repro.embeddings.
CompressedEmbedding` (wrapped in a bit-exact single-shard store) or handed
in whole — and (b) a dense network built from :mod:`repro.nn`
modules.

Each model writes its dense forward (:meth:`~RecommendationModel.
dense_forward`) and backward (:meth:`~RecommendationModel.dense_backward`)
once, over plain arrays, from the ``forward_array`` / ``backward_array``
pairs of its layers, with every intermediate in a per-batch-size
:class:`~repro.nn.layers.Workspace`.  ``Trainer.train_step`` calls the two
directly, with the array BCE between them, and builds no graph; the values
are bit-identical to a per-op graph of the same network (the tests keep
that graph as the oracle, ``tests/reference_dense.py``).  Inference
(:meth:`~RecommendationModel.predict_proba`, and the :class:`ServedModel`
serving answers from) calls the array forward alone.
:meth:`~RecommendationModel.forward_dense` wraps the two methods in one
graph node, for a caller that times the loss and the backward as separate
calls (the traced training step under ``perf/``).

Precision follows the store: the dense network computes in
``np.promote_types(store.dtype, float32)`` — float32 over float16/float32
tables, float64 only over float64 tables — fixed at construction and carried
by parameters, activations, gradients and the dense optimizer state.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.data.stream import as_id_array
from repro.embeddings.base import CompressedEmbedding
from repro.errors import BatchShapeError
from repro.nn.functional import sigmoid_array
from repro.nn.layers import Workspace, claim_workspace
from repro.nn.module import Module
from repro.nn.tensor import Tensor, make_node
from repro.store import ShardedEmbeddingStore, ensure_store


class RecommendationModel(Module):
    """Common scaffolding: the store, batch checks, the array passes' workspace."""

    def __init__(
        self,
        embedding: CompressedEmbedding | ShardedEmbeddingStore,
        num_fields: int,
        num_numerical: int,
    ):
        if num_fields <= 0:
            raise ValueError(f"num_fields must be positive, got {num_fields}")
        if num_numerical < 0:
            raise ValueError(f"num_numerical must be non-negative, got {num_numerical}")
        #: The store is what the forward pass and trainer talk to; a bare
        #: embedding layer is adapted via a delegating single-shard store.
        self.store: ShardedEmbeddingStore = ensure_store(embedding)
        #: The object the caller handed in, kept for introspection (e.g.
        #: reaching a CAFE layer's sketch in experiments).
        self.embedding = embedding
        self.num_fields = int(num_fields)
        self.num_numerical = int(num_numerical)
        self.dim = self.store.dim
        #: Compute dtype of the dense network (see the module docstring).
        self.dtype = np.promote_types(self.store.dtype, np.float32)
        #: Scratch arrays of the last batch size a pass ran at.
        self._workspace: Workspace | None = None

    # ------------------------------------------------------------------ #
    # Dense part (implemented by subclasses over arrays)
    # ------------------------------------------------------------------ #
    def dense_forward(
        self, weights: Sequence[np.ndarray], embeddings: np.ndarray, numerical: np.ndarray,
        ws: Workspace,
    ) -> np.ndarray:
        """``(batch, 1)`` logits (a workspace array) of ``(batch, fields, dim)``
        embeddings and ``(batch, num_numerical)`` features in the model's
        dtype, under ``weights`` (arrays in ``parameters()`` order).  Reads
        nothing of the model but its structure, so a :class:`ServedModel`
        runs it over frozen weights."""
        raise NotImplementedError  # pragma: no cover - abstract

    def dense_backward(
        self, weights: Sequence[np.ndarray], embeddings: np.ndarray, numerical: np.ndarray,
        dlogits: np.ndarray, ws: Workspace, grads: Sequence[np.ndarray],
    ) -> np.ndarray:
        """The embedding gradient of the last :meth:`dense_forward` on ``ws``
        for ``(batch, 1)`` upstream ``dlogits``, with the parameter gradients
        written into ``grads`` (one array per entry of ``weights``, in its
        shape: new arrays, or the dense optimizer's staging views).  The
        embedding gradient is a :meth:`~repro.nn.layers.Workspace.handout`,
        which no later pass writes while the caller still holds it."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _flat_features(
        self, embeddings: np.ndarray, numerical: np.ndarray, ws: Workspace, fill: bool = True
    ) -> np.ndarray:
        """WDL's and DCN's input: the flattened embeddings, then ``numerical``
        (``fill=False``: as the forward pass left it in ``ws``)."""
        flat = embeddings.reshape(embeddings.shape[0], self.num_fields * self.dim)
        if not self.num_numerical:
            return flat
        features = ws((self, "features"), flat.shape[1] + self.num_numerical)
        if fill:
            features[:, : flat.shape[1]] = flat
            features[:, flat.shape[1]:] = numerical
        return features

    def _leaf_gradient(self, dfields: np.ndarray, ws: Workspace) -> np.ndarray:
        """The embedding gradient, copied out of the workspace into an array
        the caller may keep: ``dfields`` is ``(batch, fields, dim)`` or, for
        a :meth:`_flat_features` gradient, ``(batch, columns)``."""
        out = ws.handout(self, self.num_fields, self.dim)
        if dfields.ndim == 2:
            dfields = dfields[:, : self.num_fields * self.dim].reshape(out.shape)
        np.copyto(out, dfields[:, : self.num_fields])
        return out

    def forward_dense(self, embeddings: Tensor, numerical: np.ndarray) -> Tensor:
        """Map ``(batch, fields, dim)`` embeddings + numerical features to logits.

        The graph form of the array pass ``Trainer`` runs directly: one node
        whose backward fills ``embeddings.grad`` (when it requires one) and
        every parameter's ``.grad``.  ``numerical`` may arrive in any float
        dtype; it is cast to the model's.  The node's activations live in the
        model's workspace, so its backward must run before the next forward
        at the same batch size.
        """
        params = list(self.parameters())
        weights = [param.data for param in params]
        x = embeddings.data
        numerical = np.asarray(numerical, dtype=self.dtype)
        ws = self._workspace = claim_workspace(self._workspace, x.shape[0], self.dtype)
        claimed = ws.passes
        logits = self.dense_forward(weights, x, numerical, ws).reshape(-1).copy()

        def backward(grad: np.ndarray) -> None:
            if ws.passes != claimed:
                raise RuntimeError(
                    "a later forward at this batch size overwrote this pass's activations; "
                    "run backward before the next forward or predict_proba"
                )
            grads = [np.empty_like(weight) for weight in weights]
            dx = self.dense_backward(weights, x, numerical, grad.reshape(-1, 1), ws, grads)
            if embeddings.requires_grad:
                embeddings._accumulate_grad(dx, owned=True)
            for param, param_grad in zip(params, grads):
                param._accumulate_grad(param_grad, owned=True)

        return make_node(logits, (embeddings, *params), backward)

    def predict_proba(self, categorical: np.ndarray, numerical: np.ndarray | None = None) -> np.ndarray:
        """Click probabilities for a batch: the array forward alone, no graph."""
        weights = [param.data for param in self.parameters()]
        return _predict(self, self, self.store, weights, categorical, numerical)

    def served(self, store: Any, weights: np.ndarray | None = None) -> "ServedModel":
        """This architecture over ``store`` (a snapshot view) and ``weights``
        (a flat array in :meth:`~repro.nn.module.Module.flat_parameters`
        layout; default: a new copy of the live parameters)."""
        return ServedModel(self, store, self.flat_parameters() if weights is None else weights)

    def _check_batch(
        self, categorical: np.ndarray, numerical: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(categorical as int64, numerical in the model's dtype)``, or
        :class:`~repro.errors.BatchShapeError` if either has the wrong shape
        (:class:`~repro.errors.NonIntegerIdError` for ids that are not integers)."""
        categorical = as_id_array(categorical)
        if categorical.ndim != 2 or categorical.shape[1] != self.num_fields:
            raise BatchShapeError(
                f"categorical input must have shape (batch, {self.num_fields}), got {categorical.shape}"
            )
        batch_size = categorical.shape[0]
        if self.num_numerical == 0:
            return categorical, np.zeros((batch_size, 0), dtype=self.dtype)
        if numerical is None:
            raise BatchShapeError(f"model expects {self.num_numerical} numerical features, got none")
        numerical = np.asarray(numerical, dtype=self.dtype)
        if numerical.shape != (batch_size, self.num_numerical):
            raise BatchShapeError(
                f"numerical input must have shape ({batch_size}, {self.num_numerical}), "
                f"got {numerical.shape}"
            )
        return categorical, numerical

    def dense_parameter_count(self) -> int:
        """Number of parameters in the dense network (excludes embeddings)."""
        return self.num_parameters()


class ServedModel:
    """What serving answers from: an architecture, frozen weights, a store view.

    ``weights`` is one flat array (never copied here) and ``store`` any
    snapshot with ``lookup``; ``architecture`` is the trained model, used
    for its structure and :meth:`~RecommendationModel.dense_forward` only —
    its live parameters are never read.  :meth:`predict_proba` builds no
    ``Tensor``, and the workspace is this object's own, so serving never
    touches the live model's.  Like the engine or replica holding it, one
    served model answers one thread at a time: every call reuses that
    workspace.
    """

    def __init__(self, architecture: RecommendationModel, store: Any, weights: np.ndarray):
        self.architecture = architecture
        self.store = store
        self.weights = weights
        self.num_fields = architecture.num_fields
        self.num_numerical = architecture.num_numerical
        self.dtype = architecture.dtype
        self._views = architecture.parameter_views(weights)
        self._workspace: Workspace | None = None

    def predict_proba(self, categorical: np.ndarray, numerical: np.ndarray | None = None) -> np.ndarray:
        """Click probabilities under the frozen weights and store view."""
        return _predict(self, self.architecture, self.store, self._views, categorical, numerical)


def _predict(owner, model, store, weights, categorical, numerical) -> np.ndarray:
    """``sigmoid`` of ``model``'s array forward over ``store`` and ``weights``,
    in ``owner``'s workspace."""
    categorical, numerical = model._check_batch(categorical, numerical)
    ws = owner._workspace = claim_workspace(owner._workspace, len(categorical), model.dtype)
    z = model.dense_forward(weights, store.lookup(categorical), numerical, ws).reshape(-1)
    return sigmoid_array(z)
