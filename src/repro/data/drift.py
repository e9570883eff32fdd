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

from operator import itemgetter

import numpy as np

from repro.utils.rng import SeedLike, make_rng

#: Exponent of the head bias of the swapped ranks: ``floor(card * u**HEAD_BIAS)``.
HEAD_BIAS = 2.0


class DriftModel:
    """Base class: produces the rank→feature permutation for each day."""

    def permutation_for_day(self, day: int, cardinality: int, base: np.ndarray) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - abstract


class _Walk:
    """One cardinality's rolling drift state: where its permutation is now.

    ``order`` holds the permutation as a list, which the sequential swaps
    walk (one costs ~0.1 us on a list against ~0.9 us through numpy scalar
    indexing); ``array`` is the same permutation as an array, kept in step by
    writing only the ranks each day swaps.  ``answer`` is the copy handed out
    for ``day``, so a repeated request allocates nothing.
    """

    __slots__ = ("base", "order", "array", "day", "answer")

    def __init__(self, base: np.ndarray):
        self.base = base.copy()
        self.restart()
        self.answer = self.base.copy()

    def restart(self) -> None:
        """Back to day 0, the base."""
        self.order = self.base.tolist()
        self.array = self.base.copy()
        self.day = 0


class RotatingDrift(DriftModel):
    """Each day swaps a fixed fraction of ranks, cumulatively.

    ``swap_fraction`` controls how many rank pairs are exchanged per day;
    swaps accumulate so distant days differ more than adjacent days.  Swaps
    are biased towards the head of the ranking (the hot features) because
    that is where changes matter for hot-feature tracking.

    The state is one walk per cardinality, not one permutation per day: a
    request for a later day applies each intervening day's swaps in place, a
    request for an earlier day restarts the walk from day 0.  Every answer is
    a fresh array that no later request writes.

    Known quirk: the walk is keyed by cardinality alone and starts from the
    base of whichever field asked first, so two fields of equal cardinality
    (83 twice in the ``small`` criteo preset, 31 twice in ``tiny``) share the
    permutation derived from that first base.  Every recorded sample depends
    on it; only a benchmark-only re-baseline may change it.
    """

    def __init__(self, swap_fraction: float, seed: SeedLike):
        if not 0.0 <= swap_fraction <= 1.0:
            raise ValueError(f"swap_fraction must be in [0, 1], got {swap_fraction}")
        self.swap_fraction = float(swap_fraction)
        self._seed_root = make_rng(seed).integers(0, 2**31 - 1)
        self._walks: dict[int, _Walk] = {}

    def permutation_for_day(self, day: int, cardinality: int, base: np.ndarray) -> np.ndarray:
        if day < 0:
            raise ValueError(f"day must be non-negative, got {day}")
        walk = self._walks.get(cardinality)
        if walk is None:
            walk = self._walks[cardinality] = _Walk(base)
        if day == walk.day:
            return walk.answer
        if day < walk.day:
            walk.restart()
        while walk.day < day:
            walk.day += 1
            self._swap(walk, walk.day, cardinality)
        walk.answer = walk.array.copy()
        return walk.answer

    def _swap(self, walk: _Walk, day: int, cardinality: int) -> None:
        """Apply ``day``'s swaps to ``walk``: the list, then the touched ranks."""
        rng = np.random.default_rng(self._seed_root + 7919 * day + cardinality)
        num_swaps = max(int(self.swap_fraction * cardinality), 1)
        # Head-biased rank choices: ranks ~ floor(card * u**HEAD_BIAS).
        u = rng.random(size=(num_swaps, 2))
        ranks = np.floor(cardinality * u**HEAD_BIAS).astype(np.int64)
        np.minimum(ranks, cardinality - 1, out=ranks)  # never negative; rounding may reach card
        # Swaps are sequential (a rank may be hit twice), so they run on the list.
        order, touched = walk.order, ranks.ravel()
        pairs = iter(flat := touched.tolist())
        for a, b in zip(pairs, pairs):
            order[a], order[b] = order[b], order[a]
        walk.array[touched] = itemgetter(*flat)(order)  # at least two ranks: a tuple
