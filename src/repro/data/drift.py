"""Distribution-drift models for the synthetic data generator.

Figure 2 of the paper shows that the per-day feature distributions of the
public CTR datasets differ, and that the divergence grows with the number of
days between them.  The synthetic generator reproduces this by letting the
*popularity ranking* of features evolve across days: each field has a
permutation mapping Zipf ranks to feature ids, and a drift model perturbs
that permutation from one day to the next.  Cumulative perturbations make
KL(day_i ‖ day_j) grow with ``|i - j|``, which is exactly the structure the
heatmaps display.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, make_rng


class DriftModel:
    """Base class: produces the rank→feature permutation for each day."""

    def permutation_for_day(self, day: int, cardinality: int, base: np.ndarray) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - abstract


class RotatingDrift(DriftModel):
    """Each day swaps a fixed fraction of ranks, cumulatively.

    ``swap_fraction`` controls how many rank pairs are exchanged per day;
    swaps accumulate so distant days differ more than adjacent days.  Swaps
    are biased towards the head of the ranking (the hot features) because
    that is where changes matter for hot-feature tracking.

    Known quirk: permutations are cached per ``(day, cardinality)``, so two
    fields of equal cardinality (83 twice in the ``small`` criteo preset, 31
    twice in ``tiny``) share the permutation derived from whichever of them
    asked first.  Every recorded sample depends on it; only a benchmark-only
    re-baseline may change it.
    """

    def __init__(self, swap_fraction: float = 0.05, head_bias: float = 2.0, seed: SeedLike = 0):
        if not 0.0 <= swap_fraction <= 1.0:
            raise ValueError(f"swap_fraction must be in [0, 1], got {swap_fraction}")
        if head_bias <= 0:
            raise ValueError(f"head_bias must be positive, got {head_bias}")
        self.swap_fraction = float(swap_fraction)
        self.head_bias = float(head_bias)
        self._seed_root = make_rng(seed).integers(0, 2**31 - 1)
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    def permutation_for_day(self, day: int, cardinality: int, base: np.ndarray) -> np.ndarray:
        if day < 0:
            raise ValueError(f"day must be non-negative, got {day}")
        key = (day, cardinality)
        if key in self._cache:
            return self._cache[key]
        if day == 0:
            permutation = base.copy()
        else:
            previous = self.permutation_for_day(day - 1, cardinality, base)
            rng = np.random.default_rng(self._seed_root + 7919 * day + cardinality)
            num_swaps = max(int(self.swap_fraction * cardinality), 1)
            # Head-biased rank choices: ranks ~ floor(card * u**head_bias).
            u = rng.random(size=(num_swaps, 2))
            ranks = np.floor(cardinality * u**self.head_bias).astype(np.int64)
            ranks = np.clip(ranks, 0, cardinality - 1)
            # Swaps are sequential (a rank may be hit twice); one costs ~0.1 us
            # on a list against ~0.9 us through numpy scalar indexing.
            swapped = previous.tolist()
            for a, b in ranks.tolist():
                swapped[a], swapped[b] = swapped[b], swapped[a]
            permutation = np.array(swapped, dtype=previous.dtype)
        self._cache[key] = permutation
        return permutation
