"""CSVec — a mergeable count-sketch over *vectors* keyed by integer ids.

A classic count sketch (Charikar et al., 2002) summarises a stream of scalar
scores.  Gradient exchange and sketched optimizer state need the same trick
over *rows*: every key carries a ``dim``-vector (a gradient), the
sketch folds ``sign(key) * vector`` into ``depth × width`` bucket rows, and
an individual key's vector is recovered as the component-wise median over
depth.  Because the fold is linear, two sketches built from disjoint (or
overlapping) sub-streams merge by plain addition — the property the
process-parallel runtime uses to combine per-shard gradient sketches into
one global view, mirroring ``HotSketch.merge``.

Alongside the signed vector table the sketch keeps an *unsigned* count-min
mass table (one scalar per bucket) accumulating the L2 mass each key
inserted.  ``estimate_mass`` (min over depth) is a monotone overestimate,
which makes it safe for heavy-hitter *selection*: a genuinely heavy key can
never be under-ranked below its true mass.

Hashing follows the repo idiom exactly (SplitMix64 ``hash_to_range``
positions per depth row, ``mix64 & 1`` signs), so a CSVec built anywhere in
the system with the same ``(width, depth, dim, seed)`` is bucket-compatible
and therefore mergeable.
"""

from __future__ import annotations

import numpy as np

from repro.utils.hashing import hash_to_range, mix64


class CSVec:
    """Mergeable vector count-sketch with heavy-hitter mass tracking.

    Parameters
    ----------
    width:
        Buckets per depth row.  Total state is ``depth * width * dim``
        floats for the vector table plus ``depth * width`` for the mass
        counters.
    dim:
        Length of the vectors being folded (the embedding dimension).
    depth:
        Number of independent hash rows; must be odd so the median is
        well-defined.
    seed:
        Hash-family seed.  Two sketches merge only if ``width``, ``depth``,
        ``dim`` and ``seed`` all match.
    dtype:
        Table dtype.  ``float64`` (default) for in-core accumulation;
        the gradient-exchange wire format uses ``float32``.
    """

    def __init__(
        self,
        width: int,
        dim: int,
        depth: int = 3,
        seed: int = 0,
        dtype=np.float64,
    ):
        if width <= 0 or depth <= 0 or dim <= 0:
            raise ValueError("width, depth and dim must be positive")
        if depth % 2 == 0:
            raise ValueError("depth should be odd so the median is well-defined")
        self.width = int(width)
        self.depth = int(depth)
        self.dim = int(dim)
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self.table = np.zeros((self.depth, self.width, self.dim), dtype=self.dtype)
        self.counts = np.zeros((self.depth, self.width), dtype=self.dtype)

    # ------------------------------------------------------------------ #
    # Hashing: SplitMix64 positions per depth row, ``mix64 & 1`` signs
    # ------------------------------------------------------------------ #
    def positions_and_signs(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(depth, n)`` bucket positions and ±1 signs for ``keys``."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        positions = np.stack(
            [hash_to_range(keys, self.width, seed=self.seed + row) for row in range(self.depth)],
            axis=0,
        )
        signs = np.stack(
            [
                np.where(mix64(keys, seed=self.seed + 1000 + row) & np.uint64(1), 1.0, -1.0)
                for row in range(self.depth)
            ],
            axis=0,
        ).astype(self.dtype)
        return positions, signs

    # ------------------------------------------------------------------ #
    # Fold / recover
    # ------------------------------------------------------------------ #
    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Fold ``values[i]`` (a ``dim``-vector) under ``keys[i]``.

        Duplicate keys are fine — linearity sums their vectors, which is
        exactly the semantics gradient exchange wants.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        values = np.asarray(values, dtype=self.dtype).reshape(keys.size, self.dim)
        if keys.size == 0:
            return
        positions, signs = self.positions_and_signs(keys)
        for row in range(self.depth):
            np.add.at(self.table[row], positions[row], signs[row][:, None] * values)
        mass = np.sqrt((values.astype(np.float64) ** 2).sum(axis=1)).astype(self.dtype)
        for row in range(self.depth):
            np.add.at(self.counts[row], positions[row], mass)

    def query(self, keys: np.ndarray) -> np.ndarray:
        """Estimate the folded vector for each key: median over depth rows."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if keys.size == 0:
            return np.zeros((0, self.dim), dtype=self.dtype)
        positions, signs = self.positions_and_signs(keys)
        estimates = np.stack(
            [signs[row][:, None] * self.table[row, positions[row]] for row in range(self.depth)],
            axis=0,
        )
        return np.median(estimates, axis=0).astype(self.dtype)

    def estimate_mass(self, keys: np.ndarray) -> np.ndarray:
        """Count-min overestimate of each key's accumulated L2 mass."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if keys.size == 0:
            return np.zeros(0, dtype=self.dtype)
        positions, _ = self.positions_and_signs(keys)
        estimates = np.stack(
            [self.counts[row, positions[row]] for row in range(self.depth)], axis=0
        )
        return estimates.min(axis=0)

    def heavy_hitters(self, keys: np.ndarray, top_k: int) -> np.ndarray:
        """Indices (into ``keys``) of the ``top_k`` keys by estimated mass.

        Deterministic: ties break toward the earlier key (stable sort), so
        every executor ranks the same candidates identically.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        top_k = int(min(max(top_k, 0), keys.size))
        if top_k == 0:
            return np.zeros(0, dtype=np.int64)
        mass = self.estimate_mass(keys)
        order = np.argsort(-mass, kind="stable")
        return np.sort(order[:top_k])

    # ------------------------------------------------------------------ #
    # Merging
    # ------------------------------------------------------------------ #
    def compatible_with(self, other: "CSVec") -> bool:
        return (
            self.width == other.width
            and self.depth == other.depth
            and self.dim == other.dim
            and self.seed == other.seed
        )

    def merge(self, other: "CSVec") -> "CSVec":
        """Fold ``other`` into this sketch in place (merge = add)."""
        if not self.compatible_with(other):
            raise ValueError(
                "cannot merge CSVecs with different (width, depth, dim, seed): "
                f"({self.width}, {self.depth}, {self.dim}, {self.seed}) vs "
                f"({other.width}, {other.depth}, {other.dim}, {other.seed})"
            )
        self.table += other.table
        self.counts += other.counts
        return self

    @classmethod
    def merge_all(cls, sketches: list["CSVec"]) -> "CSVec":
        """Merge ``sketches`` into one fresh sketch (inputs untouched)."""
        if not sketches:
            raise ValueError("merge_all needs at least one sketch")
        merged = sketches[0].spawn()
        for sketch in sketches:
            merged.merge(sketch)
        return merged

    def spawn(self) -> "CSVec":
        """An empty sketch with identical parameters (merge-compatible)."""
        return CSVec(self.width, self.dim, depth=self.depth, seed=self.seed, dtype=self.dtype)

    # ------------------------------------------------------------------ #
    # Accounting / state
    # ------------------------------------------------------------------ #
    def memory_floats(self) -> int:
        """Table + mass-counter floats (the wire/footprint size)."""
        return int(self.depth * self.width * self.dim + self.depth * self.width)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The raw state for shipping or checkpointing."""
        return {"table": self.table, "counts": self.counts}

    @classmethod
    def from_state(cls, table: np.ndarray, counts: np.ndarray, seed: int) -> "CSVec":
        """Rebuild a sketch around shipped ``table``/``counts`` arrays.

        The arrays are adopted (not copied): the wire decoder hands the
        arena views straight in, queries never mutate.
        """
        depth, width, dim = table.shape
        sketch = cls(width, dim, depth=depth, seed=seed, dtype=table.dtype)
        sketch.table = np.ascontiguousarray(table, dtype=sketch.dtype)
        sketch.counts = np.ascontiguousarray(counts, dtype=sketch.dtype)
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CSVec(width={self.width}, depth={self.depth}, dim={self.dim}, "
            f"seed={self.seed}, dtype={self.dtype.name})"
        )
