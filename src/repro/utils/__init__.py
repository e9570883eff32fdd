"""Shared utilities: hashing, Zipf sampling/fitting, RNG helpers, logging."""

from repro.utils.hashing import (
    mix64,
    hash_to_bucket,
    hash_to_range,
)
from repro.utils.rng import make_rng
from repro.utils.zipf import (
    ZipfDistribution,
    fit_zipf_exponent,
    zipf_probabilities,
)

__all__ = [
    "mix64",
    "hash_to_bucket",
    "hash_to_range",
    "make_rng",
    "ZipfDistribution",
    "fit_zipf_exponent",
    "zipf_probabilities",
]
