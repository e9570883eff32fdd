"""Shared helpers for the benchmark harness.

Each benchmark file regenerates one table or figure of the paper.  The
benchmarks run the corresponding experiment exactly once (via
``benchmark.pedantic(rounds=1)``), print the reproduced rows, and write them
to ``benchmarks/results/<experiment>.txt`` so the regenerated artifacts can
be inspected after a run of ``pytest benchmarks/ --benchmark-only``.

Those files are tracked and hold only the columns that repeat exactly for one
seed (AUC, loss, recall, staleness, memory): a diff there is a change in what
the code computes.  A result with wall-clock columns also gets its full table
under the git-ignored ``benchmarks/results/timing/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.reporting import ExperimentResult

RESULTS_DIR = Path(__file__).parent / "results"
TIMING_DIR = RESULTS_DIR / "timing"


def run_once(benchmark, runner, **kwargs) -> ExperimentResult:
    """Run an experiment exactly once under pytest-benchmark timing."""
    result = benchmark.pedantic(lambda: runner(**kwargs), rounds=1, iterations=1)
    save_result(result)
    print()
    print(result.to_text())
    return result


def save_result(result: ExperimentResult) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{result.experiment_id}.txt"
    path.write_text(result.to_text(timing=False) + "\n", encoding="utf-8")
    if result.timing_columns:
        TIMING_DIR.mkdir(exist_ok=True)
        (TIMING_DIR / path.name).write_text(result.to_text() + "\n", encoding="utf-8")
    return path


@pytest.fixture
def bench_scale() -> str:
    """Scale used by all benchmark runs (kept small so the suite finishes fast)."""
    return "tiny"
