"""In-memory span recorder for the traced twin runs.

A span is ``[name, start_ns, end_ns, parent, op_id]``: ``parent`` is the
index of the span that caused it (``-1`` for a root) and ``op_id`` ties the
spans of one operation together (training step number, micro-batch index or
snapshot version).  Spans live in a Python list until the run ends; nothing
is written while the clock runs.  ``write_chrome_trace`` emits them as Chrome
trace events (open in ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

NAME, START, END, PARENT, OP_ID = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.now = time.perf_counter_ns

    def open(self, name: str, op_id: int = 0, parent: int = -1) -> int:
        """Start a span whose children are recorded before it ends."""
        self.spans.append([name, self.now(), 0, parent, op_id])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][END] = self.now()

    def add(self, name: str, start_ns: int, end_ns: int, parent: int, op_id: int) -> None:
        """Record a finished leaf span (the hot-path form: one append)."""
        self.spans.append([name, start_ns, end_ns, parent, op_id])

    # ------------------------------------------------------------------ #
    # Summaries (run after the clock has stopped)
    # ------------------------------------------------------------------ #
    def summary(self) -> "TraceSummary":
        names = np.asarray([s[NAME] for s in self.spans])
        duration = np.asarray([s[END] - s[START] for s in self.spans], dtype=np.float64) / 1e6
        parent = np.asarray([s[PARENT] for s in self.spans], dtype=np.int64)
        return TraceSummary(names, duration, parent)

    def write_chrome_trace(self, path: str | Path) -> None:
        origin = min((s[START] for s in self.spans), default=0)
        events = [
            {
                "name": s[NAME],
                "ph": "X",
                "ts": (s[START] - origin) / 1e3,
                "dur": (s[END] - s[START]) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"op_id": s[OP_ID], "parent": s[PARENT], "span": i},
            }
            for i, s in enumerate(self.spans)
        ]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")


class TraceSummary:
    """Per-name durations of a finished trace, as arrays."""

    def __init__(self, names: np.ndarray, duration_ms: np.ndarray, parent: np.ndarray):
        self.names = names
        self.duration_ms = duration_ms
        # Children of one parent never overlap here (one thread, sequential
        # calls), so covered time is the plain sum of child durations and a
        # span's self time is ``duration - covered``.
        self.covered = np.zeros(names.size, dtype=np.float64)
        has_parent = parent >= 0
        np.add.at(self.covered, parent[has_parent], duration_ms[has_parent])

    def durations_ms(self, name: str) -> np.ndarray:
        return self.duration_ms[self.names == name]

    def median_ms(self, name: str) -> float:
        values = self.durations_ms(name)
        return float(np.median(values)) if values.size else 0.0

    def covered_ms(self, parent_name: str) -> tuple[np.ndarray, np.ndarray]:
        """Per ``parent_name`` span: ``(duration, time covered by its children)``."""
        mask = self.names == parent_name
        return self.duration_ms[mask], self.covered[mask]
