"""repro: a from-scratch reproduction of CAFE (SIGMOD 2024).

The package provides:

* ``repro.api`` — the declarative front door: ``SystemConfig`` →
  ``Session``, the field-spec parser and the consolidated ``python -m repro``
  CLI;
* ``repro.nn`` — NumPy layers over arrays, parameters and optimizers;
* ``repro.sketch`` — HotSketch and its accuracy analysis;
* ``repro.embeddings`` — CAFE, CAFE-ML and all baseline compressed
  embeddings, and the name → backend table;
* ``repro.models`` — DLRM, WDL and DCN recommendation models;
* ``repro.store`` — the embedding-store interface, hash-partitioned sharding
  and copy-on-write snapshots;
* ``repro.serving`` — snapshot-backed micro-batching inference engine
  (``python -m repro serve``);
* ``repro.data`` — synthetic CTR streams, Criteo reader, dataset schemas;
* ``repro.training`` — training/evaluation loops and metrics;
* ``repro.experiments`` — one runner per table/figure of the paper.
"""

from repro.version import __version__

__all__ = ["__version__"]
