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
from repro.nn.module import section
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
    # snapshot the live shards may be private copies of it.  A store whose
    # backend keeps no state raises NotImplementedError (the
    # CompressedEmbedding default) and the checkpoint omits the section.
    try:
        sparse = model.store.state_dict()
    except NotImplementedError:
        sparse = {}
    for name, value in sparse.items():
        payload[f"{_SPARSE_PREFIX}{name}"] = value
    payload[f"{_META_PREFIX}has_sparse"] = np.asarray(int(bool(sparse)))
    np.savez(path, **payload)
    return path


def load_checkpoint(
    path: str | Path, model: RecommendationModel, optimizer: Optimizer | None = None
) -> int:
    """Restore a checkpoint written by :func:`save_checkpoint`; returns the
    training step recorded at save time.

    Every section is checked once before any is written — the sparse one by
    the store's ``check_state``, ``optim/`` by the optimizer's, the dense one
    by the model's (:func:`~repro.nn.module.check_fits`) — and then written
    by the same objects' ``write_state``, so a refused checkpoint restores
    nothing.  The error names the key family that does
    not fit: :class:`~repro.errors.OptimizerStateMismatchError` (another
    kind or size of dense optimizer, ``optimizer.*`` entries the row
    optimizer cannot take), :class:`~repro.errors.SketchStateMismatchError`
    (a HotSketch of another geometry), ``KeyError`` (other dense parameter
    names) or :class:`~repro.errors.CheckpointLayoutError` (the rest: another
    shard count, a table-group store, another key set, array shape or
    ``hash_seed``, CAFE free rows that do not partition its exclusive rows);
    a sparse section for a store without sparse state is a ``ValueError``.
    A checkpoint without an ``optim/`` section (written before there was
    one, or without ``optimizer=``) still loads: ``optimizer`` is reset to
    its freshly constructed state and says so in ``optimizer.restored``.
    """
    with np.load(path) as data:
        contents = dict(data)
    dense, optim = section(contents, _DENSE_PREFIX), section(contents, _OPTIM_PREFIX)
    has_sparse = bool(int(contents[f"{_META_PREFIX}has_sparse"]))
    sparse = section(contents, _SPARSE_PREFIX) if has_sparse else None
    if sparse is not None:
        try:
            model.store.check_state(sparse)
        except NotImplementedError:
            raise ValueError(
                "checkpoint contains embedding state but the model's embedding store "
                f"({type(model.store).__name__}) cannot load one"
            ) from None
    if optimizer is not None and optim:
        optimizer.check_state(optim)
    model.check_state(dense)
    if optimizer is not None:
        if optim:
            optimizer.write_state(optim)
        else:
            optimizer.reset_state()
    model.write_state(dense)
    if sparse is not None:
        model.store.write_state(sparse)
    return int(contents[f"{_META_PREFIX}step"])
