#!/usr/bin/env python
"""Assert the acceptance gates recorded in BENCH_embedding.json.

Four gates are checked against the most recent full (non-smoke) run:

* **shard scaling** (written by ``repro.bench.store_bench.
  bench_shard_scaling``): the process-executor speedup of the hash backend
  at 4 shards vs 1 shard, next to the ``cpu_count`` of the recording host.
  The threshold (>= 2.0x) is only physically reachable when the recorder had
  at least as many cores as shards, so this check is conditional by design:

  - full run recorded on >= 4 cores  ->  ``measured >= threshold`` or exit 1;
  - full run recorded on fewer cores ->  require the gate to be present,
    honest (``cpu_constrained: true``) and measured, then pass with a notice;

* **delta publish** (written by ``repro.bench.runtime_bench.
  bench_replica_serving``): publishing a delta snapshot to a replica must
  cost at most 0.5x the p50 of publishing the always-full equivalent at
  the same serving-table scale and identical training traffic — the
  replicated tier's reason to exist.  Single-process and deterministic in
  shape, so the threshold is unconditional.

* **optimizer memory** (written by ``repro.bench.optim_bench.
  bench_optimizer_memory``): sketched Adagrad at <= 0.25x the exact
  optimizer's state memory must reach >= 0.98x the exact-Adagrad AUC.
  Single-process and deterministic, so the threshold is unconditional.

* **gradient exchange** (written by ``repro.bench.store_bench.
  bench_grad_exchange``): the sketched trainer->shard exchange must ship
  >= 1.5x fewer payload bytes per train step at 4 shards than the dense
  exchange, which ships the same deduplicated rows (measured 1.62x; the
  threshold is read from the recorded gate object).  Payload accounting is
  transport-independent, so the threshold is unconditional.

No full (non-smoke) run recorded -> exit 1.

Usage::

    python scripts/check_bench_gate.py [BENCH_embedding.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REQUIRED_KEYS = (
    "metric",
    "threshold",
    "measured",
    "cpu_count",
    "cpu_constrained",
    "passed",
    "num_shards",
)

DELTA_REQUIRED_KEYS = (
    "metric",
    "threshold",
    "measured",
    "passed",
    "full_p50_ms",
    "delta_p50_ms",
)

OPTIMIZER_REQUIRED_KEYS = (
    "metric",
    "threshold",
    "measured",
    "passed",
    "memory_fraction_limit",
    "memory_fraction",
    "optimizer",
)

GRAD_EXCHANGE_REQUIRED_KEYS = (
    "metric",
    "threshold",
    "measured",
    "passed",
    "num_shards",
)


def full_run(envelope: dict) -> dict | None:
    """The most recent non-smoke report in the envelope, or None."""
    runs = [envelope.get("latest")] + list(reversed(envelope.get("history", [])))
    for run in runs:
        if isinstance(run, dict) and not run.get("workload", {}).get("smoke", True):
            return run
    return None


def check_delta_gate(run: dict) -> int:
    """The delta-publish latency gate: unconditional (single-process)."""
    gate = run.get("results", {}).get("replica_serving", {}).get(
        "delta_publish", {}
    ).get("gate")
    if not isinstance(gate, dict):
        print("FAIL: the full run's replica_serving section has no "
              "delta_publish gate object")
        return 1
    missing = [key for key in DELTA_REQUIRED_KEYS if key not in gate]
    if missing:
        print(f"FAIL: delta gate object is missing keys {missing}")
        return 1
    label = (
        f"{gate['metric']}: measured {gate['measured']} vs threshold "
        f"{gate['threshold']} (delta {gate['delta_p50_ms']} ms vs full "
        f"{gate['full_p50_ms']} ms p50)"
    )
    if gate["measured"] is None or gate["measured"] > gate["threshold"]:
        print(f"FAIL: {label}")
        return 1
    print(f"PASS: {label}")
    return 0


def check_optimizer_gate(run: dict) -> int:
    """The sketched-optimizer quality gate: unconditional (single-process)."""
    gate = run.get("results", {}).get("optimizer_memory", {}).get("gate")
    if not isinstance(gate, dict):
        print("FAIL: the full run's optimizer_memory section has no gate object")
        return 1
    missing = [key for key in OPTIMIZER_REQUIRED_KEYS if key not in gate]
    if missing:
        print(f"FAIL: optimizer gate object is missing keys {missing}")
        return 1
    label = (
        f"{gate['metric']}: measured {gate['measured']} vs threshold "
        f"{gate['threshold']} ({gate['optimizer']} at memory fraction "
        f"{gate['memory_fraction']})"
    )
    if gate["measured"] is None or gate["measured"] < gate["threshold"]:
        print(f"FAIL: {label}")
        return 1
    print(f"PASS: {label}")
    return 0


def check_grad_exchange_gate(run: dict) -> int:
    """The sketched-exchange byte-reduction gate: unconditional."""
    gate = (
        run.get("results", {})
        .get("shard_scaling", {})
        .get("grad_exchange", {})
        .get("gate")
    )
    if not isinstance(gate, dict):
        print("FAIL: the full run's shard_scaling section has no "
              "grad_exchange gate object")
        return 1
    missing = [key for key in GRAD_EXCHANGE_REQUIRED_KEYS if key not in gate]
    if missing:
        print(f"FAIL: grad-exchange gate object is missing keys {missing}")
        return 1
    label = (
        f"{gate['metric']}: measured {gate['measured']}x vs threshold "
        f"{gate['threshold']}x"
    )
    if gate["measured"] is None or gate["measured"] < gate["threshold"]:
        print(f"FAIL: {label}")
        return 1
    print(f"PASS: {label}")
    return 0


def check_shard_gate(run: dict) -> int:
    """The shard-scaling gate: conditional on the recorder's core count."""
    gate = run.get("results", {}).get("shard_scaling", {}).get("gate")
    if not isinstance(gate, dict):
        print("FAIL: the full run's shard_scaling section has no gate object")
        return 1
    missing = [key for key in REQUIRED_KEYS if key not in gate]
    if missing:
        print(f"FAIL: gate object is missing keys {missing}")
        return 1
    if gate["measured"] is None:
        print("FAIL: the full run did not measure the gate configuration "
              f"({gate['num_shards']} shards, processes)")
        return 1

    label = f"{gate['metric']}: measured {gate['measured']} vs threshold {gate['threshold']}"
    if gate["cpu_count"] >= gate["num_shards"]:
        if gate["measured"] >= gate["threshold"]:
            print(f"PASS: {label} (cpu_count={gate['cpu_count']})")
            return 0
        print(f"FAIL: {label} (cpu_count={gate['cpu_count']} — no excuse)")
        return 1
    if not gate["cpu_constrained"]:
        print(f"FAIL: cpu_count={gate['cpu_count']} < {gate['num_shards']} shards "
              "but the gate does not admit cpu_constrained")
        return 1
    print(f"SKIP threshold: {label} — recorded on cpu_count={gate['cpu_count']} "
          f"(< {gate['num_shards']} shards), threshold physically unreachable; "
          "gate recorded honestly")
    return 0


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else Path("BENCH_embedding.json")
    if not path.exists():
        print(f"FAIL: {path} does not exist")
        return 1
    envelope = json.loads(path.read_text(encoding="utf-8"))
    run = full_run(envelope)
    if run is None:
        print(f"FAIL: {path} records no full (non-smoke) benchmark run")
        return 1
    # Run every check so a failing report prints every verdict at once.
    return max(
        check_shard_gate(run),
        check_delta_gate(run),
        check_optimizer_gate(run),
        check_grad_exchange_gate(run),
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv))
