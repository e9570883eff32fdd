"""Sketched gradient-exchange wire format for the sharded store.

Dense exchange ships each shard its slice of ``(unique ids, summed
gradients, importance scores)`` — ``O(distinct ids x dim)`` bytes every step,
the dominant IPC payload of the process-parallel runtime.  Sketched exchange
replaces it with a compact payload per shard:

* the shard's **unique ids** (the store already summed duplicates),
* **exact summed gradients for the heavy ids** (the top ``heavy_frac`` by
  sketched L2 mass — recovered exactly, never estimated),
* a fixed-size **CSVec** (``float32`` on the wire) from which the tail ids'
  gradients are recovered as median-of-depth estimates.

Every shard's sketch is built with the *same* ``(width, depth, seed)``
derived from the whole batch, so the trainer can merge the per-shard
sketches by plain addition into one global per-step gradient sketch
(:meth:`repro.sketch.CSVec.merge`) — the mergeability property the tests
pin down (merge of N shard sketches == one single-stream fold).

Build and reconstruct run the same code on every executor; only the
transport differs (in-process handoff for serial, shm arena arrays for
processes), which is what makes the serial ≡ processes parity test meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.embeddings.plan import gradient_norms
from repro.sketch.csvec import CSVec

#: Accepted gradient-exchange modes for the sharded store / config tree.
GRAD_EXCHANGE_MODES = ("dense", "sketched")

#: Depth of the exchange sketch (odd, for the median).
EXCHANGE_DEPTH = 3

#: Fraction of a shard's unique ids shipped with exact summed gradients.
HEAVY_FRAC = 0.10

#: Target sketch size: ``unique_ids x dim / EXCHANGE_COMPRESSION`` floats.
EXCHANGE_COMPRESSION = 8

#: Width floor so tiny batches still produce a well-formed sketch.
MIN_WIDTH = 8


def exchange_width(num_unique: int, depth: int = EXCHANGE_DEPTH) -> int:
    """Sketch width for a step touching ``num_unique`` distinct ids.

    Sized so the sketch table holds ~``1/EXCHANGE_COMPRESSION`` of the dense
    unique-gradient floats.  Derived from the *global* batch, so every
    shard's sketch shares one width and stays mergeable.
    """
    return max(MIN_WIDTH, math.ceil(num_unique / (EXCHANGE_COMPRESSION * depth)))


@dataclass
class SketchedGradPayload:
    """One shard's gradient update, sketch-compressed for the wire."""

    ids: np.ndarray  # (u,) int64 — unique ids, ascending
    heavy_index: np.ndarray  # (h,) int32 — indices into ``ids``
    heavy_grads: np.ndarray  # (h, dim) — exact summed gradients
    sketch_table: np.ndarray  # (depth, width, dim) float32
    sketch_counts: np.ndarray  # (depth, width) float32
    seed: int

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The payload in wire order (matches ``op_apply_sketched``)."""
        return (
            self.ids,
            self.heavy_index,
            self.heavy_grads,
            self.sketch_table,
            self.sketch_counts,
        )

    def nbytes(self) -> int:
        """Bytes crossing the shard boundary for this payload."""
        return int(sum(array.nbytes for array in self.arrays()))


def build_sketched_payload(
    unique_ids: np.ndarray,
    summed: np.ndarray,
    *,
    width: int,
    seed: int,
    depth: int = EXCHANGE_DEPTH,
    heavy_frac: float = HEAVY_FRAC,
) -> SketchedGradPayload:
    """Fold one shard's ``(unique ids, summed gradients)`` into the wire payload.

    ``width`` must come from :func:`exchange_width` over the *global* batch
    so the per-shard sketches merge; ``seed`` likewise must match across
    shards.
    """
    sketch = CSVec(width, summed.shape[-1], depth=depth, seed=seed, dtype=np.float32)
    sketch.insert(unique_ids, summed)
    heavy_count = math.ceil(heavy_frac * unique_ids.size) if unique_ids.size else 0
    heavy_index = sketch.heavy_hitters(unique_ids, heavy_count)
    return SketchedGradPayload(
        ids=unique_ids,
        heavy_index=heavy_index.astype(np.int32),
        heavy_grads=np.ascontiguousarray(summed[heavy_index]),
        sketch_table=sketch.table,
        sketch_counts=sketch.counts,
        seed=int(seed),
    )


def reconstruct_gradients(
    ids: np.ndarray,
    heavy_index: np.ndarray,
    heavy_grads: np.ndarray,
    sketch_table: np.ndarray,
    sketch_counts: np.ndarray,
    seed: int,
    *,
    dtype=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`build_sketched_payload`: ``(unique_ids, grads)``.

    Heavy ids get their shipped exact summed gradients; tail ids get the
    sketch's median-of-depth estimate.  Runs shard-side (worker process for
    the processes executor, in-process otherwise) with identical math
    everywhere.
    """
    ids = np.asarray(ids, dtype=np.int64)
    sketch = CSVec.from_state(sketch_table, sketch_counts, int(seed))
    grads = sketch.query(ids)
    heavy_index = np.asarray(heavy_index, dtype=np.int64)
    if heavy_index.size:
        grads[heavy_index] = heavy_grads
    if dtype is not None and grads.dtype != np.dtype(dtype):
        grads = grads.astype(dtype)
    return ids, grads


def apply_sketched_payload(shard, *payload) -> None:
    """Recover a payload's gradients and apply them to ``shard``.

    ``payload`` is :meth:`SketchedGradPayload.arrays` plus the seed.  Runs
    shard-side on every executor (the worker's
    ``op_apply_sketched_gradients`` calls it too), so serial and process
    execution share one recovery code path.  The shard's importance
    scores are the norms of the reconstructed rows.
    """
    ids, grads = reconstruct_gradients(*payload, dtype=shard.dtype)
    if shard.use_frequency:
        scores = np.ones(ids.shape[0], dtype=np.float64)
    else:
        scores = gradient_norms(grads)
    shard.apply_unique(ids, grads, scores)
