"""Project correctness tooling: lint rules, layering checker, sanitizer.

Three legs, one front door (``python -m repro analyze``):

* :mod:`repro.analysis.lint` — AST rules for the contracts that used to be
  prose (capability probes stay in the registry, bench timing uses
  ``perf_counter``, ...).
* :mod:`repro.analysis.layers` — the package import DAG, cycle detection,
  and the generated ``docs/import_graph.md``.
* :mod:`repro.analysis.sanitizer` — runtime guards: sealed-array freezing
  and the opt-in ``REPRO_SANITIZE=1`` single-writer race detector.

This package sits near the bottom of the layer order (just above the
foundation) because the runtime and store layers import the sanitizer; the
static tools import nothing from the rest of the package.
"""

from __future__ import annotations

import importlib
from typing import Any

__all__ = ["lint", "layers", "sanitizer"]


def __getattr__(name: str) -> Any:
    # Lazy submodule access keeps ``import repro.analysis`` (which the
    # runtime does eagerly for the sanitizer) from paying for the AST tools.
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
