"""Tests for repro.utils.rng and repro.utils.logging."""

import logging

import numpy as np

from repro.utils.logging import get_logger
from repro.utils.rng import make_rng


class TestMakeRng:
    def test_from_int_seed_is_deterministic(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestLogging:
    def test_no_duplicate_handlers(self):
        logger1 = get_logger("repro.test.logger")
        logger2 = get_logger("repro.test.logger")
        assert logger1 is logger2
        assert len(logger1.handlers) == 1

    def test_level_is_info(self):
        assert get_logger("repro.test.level").level == logging.INFO
