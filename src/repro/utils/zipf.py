"""Zipf distribution helpers.

The CAFE paper observes (Figure 3) that per-feature importance (gradient norm)
and per-feature popularity follow Zipf distributions with exponents around
1.05-1.1 on Criteo/CriteoTB.  The synthetic data generator samples features
from truncated Zipf distributions, and the gradient-norm analysis fits a Zipf
exponent to measured importance scores, so both directions (sampling and
fitting) live here.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, make_rng


def zipf_probabilities(num_items: int, exponent: float) -> np.ndarray:
    """Normalized Zipf probabilities ``p_i ∝ 1 / i**exponent`` for ranks 1..n."""
    if num_items <= 0:
        raise ValueError(f"num_items must be positive, got {num_items}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


class ZipfDistribution:
    """Truncated Zipf distribution over ``num_items`` ranks.

    Rank 0 is the most popular item.  Sampling is the inverse-CDF method,
    ``searchsorted(cdf, uniform, side="right")``, computed through a guide
    table: the uniform's bucket gives the first rank it can map to, one
    ``cdf[rank] <= uniform`` step crosses a rank boundary inside the bucket,
    and uniforms of buckets that hold several boundaries (the flat tail of a
    field far larger than the table) take the binary search itself.  Exact.
    """

    def __init__(self, num_items: int, exponent: float):
        self.num_items = int(num_items)
        self.exponent = float(exponent)
        self.probabilities = zipf_probabilities(self.num_items, self.exponent)
        self._cdf = np.cumsum(self.probabilities)
        # Guard against floating point drift so searchsorted never overflows.
        self._cdf[-1] = 1.0
        # About eight buckets per rank, at most 2**16 (at the paper's ~1.05
        # exponent < 1 % of the draws then need the binary search); a power of
        # two, so that ``uniform * buckets`` is exact.  A uniform in bucket b
        # maps to a rank in [first[b], first[b + 1]].
        buckets = min(1 << (8 * self.num_items - 1).bit_length(), 1 << 16)
        first = np.searchsorted(self._cdf, np.arange(buckets + 1) / buckets, side="right")
        self._guide = first[:-1].astype(np.min_scalar_type(self.num_items))
        # Probabilities fall with the rank, so buckets span more ranks towards
        # 1.0: below the first that spans more than one, the guide is exact.
        wide = np.flatnonzero(np.diff(first) > 1)
        self._guided_below = wide[0] / buckets if wide.size else 1.0

    def sample(self, size: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``size`` ranks (0-based, 0 = hottest) from the distribution."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        uniforms = make_rng(rng).random(size)
        ranks = self._guide.take((uniforms * self._guide.size).astype(np.intp)).astype(np.int64)
        ranks += self._cdf.take(ranks) <= uniforms
        if self._guided_below < 1.0:
            rest = uniforms >= self._guided_below
            ranks[rest] = np.searchsorted(self._cdf, uniforms[rest], side="right")
        return ranks


def fit_zipf_exponent(scores: np.ndarray, max_rank: int) -> float:
    """Fit a Zipf exponent to sorted positive ``scores`` via log-log regression.

    The scores are sorted in decreasing order and regressed against their rank
    on a log-log scale; the negative slope is the Zipf exponent.  Ranks past
    ``max_rank`` are ignored (a larger value fits every score), which mirrors
    the common practice of fitting only the head/torso of the distribution
    where Zipf behaviour holds.
    """
    values = np.asarray(scores, dtype=np.float64)
    values = values[values > 0]
    if values.size < 2:
        raise ValueError("need at least two positive scores to fit a Zipf exponent")
    values = np.sort(values)[::-1]
    max_rank = min(max_rank, values.size)
    if max_rank < 2:
        raise ValueError(f"a fit needs at least two ranks, got max_rank {max_rank}")
    ranks = np.arange(1, max_rank + 1, dtype=np.float64)
    selected = values[:max_rank]
    slope, _ = np.polyfit(np.log(ranks), np.log(selected), 1)
    return float(-slope)
