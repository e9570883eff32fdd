"""Checkpointing utilities (paper §4, "Fault Tolerance").

The paper registers HotSketch's state as buffers of the embedding module so
that checkpoints capture both the dense parameters and the sketch/migration
state.  This module provides the equivalent for this library: a single
``.npz`` file containing the model's dense parameters, the dense optimizer's
state (``optim/``: its flat moment arrays, step count and kind) and, when the
embedding layer supports it, its sparse state (tables, free rows, sketch
contents, threshold), so online training can resume exactly where it stopped.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.models.base import RecommendationModel
from repro.nn.optim import Optimizer

_DENSE_PREFIX = "dense/"
_OPTIM_PREFIX = "optim/"
_SPARSE_PREFIX = "sparse/"
_META_PREFIX = "meta/"


def save_checkpoint(
    path: str | Path,
    model: RecommendationModel,
    step: int = 0,
    optimizer: Optimizer | None = None,
) -> Path:
    """Write the model's dense parameters and embedding state to ``path``.

    ``optimizer`` (the trainer's dense optimizer) adds its state under
    ``optim/``; without it a resumed run restarts the moments from zero.
    Embedding layers that implement ``state_dict()`` (full, hash, CAFE,
    CAFE-ML) have their full sparse state saved; other layers are skipped
    with a marker so :func:`load_checkpoint` knows not to expect one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict[str, np.ndarray] = {f"{_META_PREFIX}step": np.asarray(step)}
    for name, value in model.state_dict().items():
        payload[f"{_DENSE_PREFIX}{name}"] = value
    if optimizer is not None:
        for name, value in optimizer.state_dict().items():
            payload[f"{_OPTIM_PREFIX}{name}"] = value
    # The store, not the layer the model was built with: after a copy-on-write
    # snapshot the live shards may be private copies of it.
    sparse_state = _sparse_state_dict(model.store)
    if sparse_state is not None:
        for name, value in sparse_state.items():
            payload[f"{_SPARSE_PREFIX}{name}"] = value
        payload[f"{_META_PREFIX}has_sparse"] = np.asarray(1)
    else:
        payload[f"{_META_PREFIX}has_sparse"] = np.asarray(0)
    np.savez(path, **payload)
    return path


def _sparse_state_dict(target) -> dict[str, np.ndarray] | None:
    """``target.state_dict()``, or ``None`` when the layer has no sparse state.

    Layers and stores whose backend keeps no checkpointable state raise
    ``NotImplementedError`` (the :class:`~repro.embeddings.base.
    CompressedEmbedding` default); those checkpoints simply omit the sparse
    section.
    """
    try:
        return target.state_dict()
    except NotImplementedError:
        return None


def load_checkpoint(
    path: str | Path, model: RecommendationModel, optimizer: Optimizer | None = None
) -> int:
    """Restore a checkpoint written by :func:`save_checkpoint`.

    Returns the training step recorded at save time.  Raises
    :class:`~repro.errors.CheckpointLayoutError` if its sparse section has
    another shard count or is a table-group checkpoint, ``KeyError`` /
    ``ValueError`` if it does not otherwise match the model structure, and
    :class:`~repro.errors.OptimizerStateMismatchError` if its ``optim/``
    section belongs to another kind or size of optimizer, or its sparse
    section carries row-optimizer state the store's row optimizer cannot
    take.  The two named
    errors are raised before anything is restored.  A checkpoint
    without an ``optim/`` section (written before there was one, or without
    ``optimizer=``) still loads: ``optimizer`` is reset to its freshly
    constructed state and says so in ``optimizer.restored``.
    """
    path = Path(path)
    with np.load(path) as data:

        def section(prefix: str) -> dict[str, np.ndarray]:
            return {key[len(prefix):]: data[key] for key in data.files if key.startswith(prefix)}

        dense, sparse, optim = section(_DENSE_PREFIX), section(_SPARSE_PREFIX), section(_OPTIM_PREFIX)
        step = int(data[f"{_META_PREFIX}step"])
        has_sparse = bool(int(data[f"{_META_PREFIX}has_sparse"]))
    # The layout check runs first, and the optimizer refuses a mismatch
    # before it writes, so either error leaves the model untouched.
    if has_sparse:
        model.store.check_state_layout(sparse)
    if optimizer is not None:
        if optim:
            optimizer.load_state_dict(optim)
        else:
            optimizer.reset_state()
    model.load_state_dict(dense)
    if has_sparse:
        target = model.store
        try:
            target.load_state_dict(sparse)
        except NotImplementedError:
            raise ValueError(
                "checkpoint contains embedding state but the model's embedding store "
                f"({type(target).__name__}) cannot load one"
            ) from None
    return step
