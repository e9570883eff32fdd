"""One declarative front door for the whole system.

``repro.api`` is the canonical way to construct and run the stack that the
rest of the package implements layer by layer (embedding backends, the
sharded store, trainer, online pipeline, serving engine):

* :class:`SystemConfig` — a nested, JSON-round-trippable configuration tree
  (``data`` / ``store`` / ``model`` / ``train`` / ``serve`` / ``pipeline``)
  that validates eagerly with actionable errors;
* :func:`build` — compiles a :class:`SystemConfig` into a wired
  :class:`Session` (stream → store → model → trainer → pipeline → serving)
  with lifecycle methods ``train`` / ``serve`` / ``run_pipeline`` /
  ``snapshot`` / ``checkpoint`` / ``restore`` / ``describe``.

The consolidated command line lives in :mod:`repro.api.cli` and is what
``python -m repro`` runs::

    python -m repro train --config examples/configs/quickstart.json
    python -m repro pipeline --config c.json --set store.num_shards=4

This module resolves its exports lazily so that importing one
``repro.api`` submodule (``python -m repro`` imports :mod:`repro.api.cli`)
does not pull the whole session machinery — and its heavier dependencies —
into every import chain.
"""

from __future__ import annotations

_EXPORTS = {
    # config tree
    "SystemConfig": "repro.api.config",
    "DataConfig": "repro.api.config",
    "StoreConfig": "repro.api.config",
    "ModelConfig": "repro.api.config",
    "TrainConfig": "repro.api.config",
    "ServeConfig": "repro.api.config",
    "PipelineConfig": "repro.api.config",
    "load_config": "repro.api.config",
    "apply_overrides": "repro.api.config",
    # session
    "Session": "repro.api.session",
    "build": "repro.api.session",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute '{name}'")
    import importlib

    return getattr(importlib.import_module(module_name), name)
