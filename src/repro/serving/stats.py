"""Latency accounting for the serving path (p50/p95/p99).

Production serving is judged on tail latency, not means.  The tracker here
records per-request wall times and summarizes them with the standard
serving percentiles for the serving engine, the replica tier and the
online pipeline's probes.
"""

from __future__ import annotations

from collections import deque

import numpy as np

#: The percentiles serving dashboards conventionally report.
PERCENTILES = (50.0, 95.0, 99.0)

#: Samples a tracker keeps: the most recent ones, so a long-lived server's
#: tracker stays bounded.
MAX_SAMPLES = 65_536


class LatencyTracker:
    """Keeps the most recent :data:`MAX_SAMPLES` per-request latencies and
    summarizes their distribution; older samples drop out as new ones arrive.

    Percentiles are NaN-safe: an empty tracker reports ``0.0`` for every
    latency figure (count ``0``) instead of ``nan``, so callers — a probe
    that has not fired yet, JSON reports — never need a guard, and a single
    sample is its own p50/p95/p99.

    >>> tracker = LatencyTracker()
    >>> tracker.summary()["p99_ms"]
    0.0
    >>> for seconds in (0.001, 0.002, 0.003):
    ...     tracker.record(seconds)
    >>> len(tracker)
    3
    >>> tracker.summary()["p50_ms"]
    2.0
    """

    def __init__(self):
        self._seconds: deque[float] = deque(maxlen=MAX_SAMPLES)

    def record(self, seconds: float) -> None:
        self._seconds.append(float(seconds))

    def record_many(self, seconds: list[float]) -> None:
        """One micro-batch's request latencies in one call."""
        self._seconds.extend(seconds)

    def __len__(self) -> int:
        return len(self._seconds)

    def summary(self) -> dict[str, float | int]:
        """Count, mean and tail percentiles in milliseconds.

        Every field is a finite float: an empty tracker reports zeros, so
        the summary can be compared, JSON-serialized, and fed to gates
        without NaN handling at each call site.
        """
        if not self._seconds:
            return {"count": 0, "mean_ms": 0.0} | {
                f"p{int(p)}_ms": 0.0 for p in PERCENTILES
            }
        values = np.asarray(self._seconds) * 1e3
        out: dict[str, float | int] = {
            "count": int(values.size),
            "mean_ms": round(float(values.mean()), 4),
        }
        for p in PERCENTILES:
            out[f"p{int(p)}_ms"] = round(float(np.percentile(values, p)), 4)
        return out

    def reset(self) -> None:
        self._seconds.clear()
