"""Host-speed calibration: a frozen numpy-only miniature of one training step.

The hosts this benchmark runs on are shared.  The same code was measured
40 % slower or faster from one minute to the next (and 60 % apart within two
hours) with no process of ours competing, and CPU time moves with wall time,
so no choice of clock helps.  What does help is measuring the host next to
the work: a calibration sample is taken before and after every segment, and
the segment's times are scaled by ``REFERENCE_MS / measured``.  Corrected
times read as on a host that runs one sample in exactly ``REFERENCE_MS``,
which is what the recording host does in its quiet state (8.5-9.3 ms at the
three batch sizes in use), so there corrected equals raw.  The raw values are
kept beside the corrected ones in every result.

The kernel imports nothing from ``repro`` so that no change to the library
can move it.  It mirrors the op mix of the workload it sits next to through
the one parameter that decides that mix, the batch size: at 2048 rows it is
BLAS- and bandwidth-bound, at 64-128 rows it is interpreter- and
call-overhead-bound, like the workloads themselves.
"""

from __future__ import annotations

import time

import numpy as np

FIELDS, DIM, HIDDEN, TABLE_ROWS = 26, 16, 64, 32768
REFERENCE_MS = 9.0


class HostSpeed:
    def __init__(self, batch_size: int):
        rng = np.random.default_rng(0)
        self.batch = batch_size
        # One sample costs about the same at every batch size.
        self.reps = max(2048 // batch_size, 1)
        self.table = rng.standard_normal((TABLE_ROWS, DIM)).astype(np.float32)
        self.ids = rng.integers(0, TABLE_ROWS, size=(batch_size, FIELDS))
        self.w1 = rng.standard_normal((FIELDS * DIM, HIDDEN)) * 0.05
        self.w2 = rng.standard_normal((HIDDEN, 1)) * 0.05

    def _step(self) -> None:
        x = self.table[self.ids].reshape(self.batch, FIELDS * DIM).astype(np.float64)
        hidden = np.maximum(x @ self.w1, 0.0)
        out = hidden @ self.w2
        grad_out = (1.0 / (1.0 + np.exp(-out)) - 0.5) / self.batch
        grad_hidden = (grad_out @ self.w2.T) * (hidden > 0.0)
        grad_w1 = x.T @ grad_hidden
        grad_x = grad_hidden @ self.w1.T
        checksum = 0.0
        for value in (grad_w1[0, 0], grad_x[0, 0], out[0, 0]):
            checksum += float(value)

    def sample_ms(self) -> float:
        """Median of three timed kernel runs, in ms."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(self.reps):
                self._step()
            times.append(time.perf_counter() - start)
        return sorted(times)[1] * 1e3

    def factor(self, *samples_ms: float) -> float:
        """Multiply a raw time by this (divide a raw rate) to correct it."""
        return REFERENCE_MS * len(samples_ms) / sum(samples_ms)
