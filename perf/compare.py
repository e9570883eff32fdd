#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py`` (the A/A and parent-vs-change tool).

    python3 perf/compare.py A.json B.json

For every (end-to-end metric, workload) pair prints both medians, both
segment IQRs, the relative difference with its base (A), the bound from
``BENCHMARK.json`` and a verdict:

``same``        B is within the bound of A, either way;
``improved``    B is better than A by more than the bound;
``regressed``   B is worse than A by more than the bound;
``unresolved``  the segment IQR of either side is wider than the bound, so
                the difference cannot be told from noise.

Exits non-zero when any pair regressed.  A verdict here is a screen, not a
claim: a gain is claimed from ten alternating pairs (see perf/README.md).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, how much worse B is than A as a share of A)``."""
    base = a["value"]
    worse = (b["value"] - base) / abs(base) if base else 0.0
    if better == "higher":
        worse = -worse
    for side in (a, b):
        if side["value"] and side["iqr"] / abs(side["value"]) > bound:
            return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "same", worse


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for name, workload in a["workloads"].items():
        other = b["workloads"].get(name)
        if other is None:
            continue
        for metric, bound in a["bounds"].items():
            left, right = workload["end_to_end"][metric], other["end_to_end"][metric]
            result, worse = verdict(left, right, bound["better"], bound["bound"])
            rows.append({"workload": name, "metric": metric, "a": left, "b": right,
                         "worse_share_of_a": worse, "bound": bound["bound"],
                         "better": bound["better"], "verdict": result})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    rows = compare(a, b)
    print(f"A = {argv[0]} (commit {a.get('commit')}, seed {a.get('seed')})")
    print(f"B = {argv[1]} (commit {b.get('commit')}, seed {b.get('seed')})")
    print(f"{'workload':15s} {'metric':12s} {'A median':>14s} {'A iqr':>11s} {'B median':>14s} "
          f"{'B iqr':>11s} {'B vs A':>9s} {'bound':>7s}  verdict")
    for row in rows:
        sign = -1.0 if row["better"] == "higher" else 1.0
        print(f"{row['workload']:15s} {row['metric']:12s} {row['a']['value']:14.5f} "
              f"{row['a']['iqr']:11.5f} {row['b']['value']:14.5f} {row['b']['iqr']:11.5f} "
              f"{sign * row['worse_share_of_a'] * 100:+8.2f}% {row['bound'] * 100:6.1f}%  "
              f"{row['verdict']} ({row['better']} is better; base A)")
    counts = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("verdicts:", ", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
