"""Quantized embedding wrapper — the simplest column-compression family.

The paper's related-work section (§6.1) classifies quantization as column
compression with a *fixed* compression ratio determined by the data type
(e.g. INT8 is 4× vs FLOAT32, INT4 is 8×), and notes that it is orthogonal to
row compression and can be combined with it.  This wrapper implements that:
it decorates any row-compression scheme (Full, Hash, CAFE, ...) and stores a
quantized *serving copy* of the looked-up vectors, modelling
quantization-aware serving:

* training updates flow to the underlying (full-precision) scheme unchanged;
* lookups return values round-tripped through ``bits``-bit affine
  quantization, so the model always sees what a quantized deployment would
  serve;
* the reported memory is the wrapped scheme's memory divided by the type
  ratio, plus the per-row scale/offset parameters.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import DEFAULT_DTYPE, CompressedEmbedding

_SUPPORTED_BITS = (4, 8, 16)


class QuantizedEmbedding(CompressedEmbedding):
    """Affine (scale + zero-point) fake-quantization around any embedding."""

    def __init__(self, base: CompressedEmbedding, bits: int = 8):
        if bits not in _SUPPORTED_BITS:
            raise ValueError(f"bits must be one of {_SUPPORTED_BITS}, got {bits}")
        super().__init__(base.num_features, base.dim, dtype=getattr(base, "dtype", DEFAULT_DTYPE))
        self.base = base
        self.use_frequency = base.use_frequency
        self.bits = int(bits)
        self.levels = 2**self.bits - 1

    # ------------------------------------------------------------------ #
    # Quantization round trip
    # ------------------------------------------------------------------ #
    def _fake_quantize(self, vectors: np.ndarray) -> np.ndarray:
        """Quantize/dequantize per looked-up vector (row-wise affine)."""
        flat = vectors.reshape(-1, self.dim)
        low = flat.min(axis=1, keepdims=True)
        high = flat.max(axis=1, keepdims=True)
        scale = np.where(high > low, (high - low) / self.levels, 1.0)
        quantized = np.round((flat - low) / scale)
        restored = quantized * scale + low
        return restored.reshape(vectors.shape)

    # ------------------------------------------------------------------ #
    # CompressedEmbedding interface
    # ------------------------------------------------------------------ #
    def lookup_unique(self, uids: np.ndarray) -> np.ndarray:
        """Serve the base layer's vectors fake-quantized to the configured bit
        width (what a quantized serving copy would return).
        """
        return self._fake_quantize(self.base.lookup_unique(uids))

    def apply_unique(self, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray) -> None:
        # Straight-through estimator: gradients pass to the full-precision store.
        self.base.apply_unique(uids, grad_sums, scores)
        self._step += 1

    def memory_floats(self) -> int:
        """Serving memory: quantized payload + one scale and offset per row.

        The underlying full-precision tables exist only at training time (the
        same assumption the paper makes when it says quantization has a fixed
        compression ratio given by the data type).
        """
        type_ratio = 32 // self.bits
        base_floats = self.base.memory_floats()
        per_row_overhead = 2 * (base_floats // max(self.dim, 1))
        return max(base_floats // type_ratio + per_row_overhead, 1)

    def describe(self) -> dict[str, float | int | str]:
        info = super().describe()
        info["base_method"] = type(self.base).__name__
        info["bits"] = self.bits
        return info
