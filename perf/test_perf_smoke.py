"""Smoke test of the benchmark: every declared name is reported, checks pass.

Runs the whole suite at ``--smoke`` sizes in a subprocess (the harness pins
BLAS threads before numpy is imported, which cannot be done in-process
here) and holds the result against ``BENCHMARK.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
REPO = PERF.parent


def tracked_files() -> set[str]:
    return {
        str(path.relative_to(PERF))
        for path in PERF.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    }


def test_smoke_suite_reports_every_declared_metric(tmp_path):
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    before = tracked_files()
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--out", str(out),
         "--trace-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert tracked_files() == before, "the benchmark wrote outside --out/--trace-dir"

    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["smoke"] is True
    assert set(report["env"]["threads"].values()) == {"1"}
    for entry in spec["workloads"]:
        row = report["workloads"][entry["name"]]
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                reported = row[section][metric["name"]]
                assert reported["unit"] == metric["unit"], (entry["name"], metric["name"])
                assert reported["value"] == reported["value"], "NaN metric"
            assert row[f"{section}_failed"] == 0
        for metric in spec["end_to_end"]:
            assert row["end_to_end"][metric["name"]]["value"] > 0, (entry["name"], metric["name"])
        assert row["checks"] and all(check["ok"] for check in row["checks"]), row["checks"]
        trace = json.loads((tmp_path / f"{entry['name']}.trace.json").read_text(encoding="utf-8"))
        assert trace["traceEvents"], "empty Chrome trace"
    # serve_closed is the read-only workload: no backward, optimizer or apply.
    serve = report["workloads"]["serve_closed"]["per_layer"]
    for name in ("nn.backward_ms", "nn.optim_step_ms", "store.apply_gradients_ms"):
        assert serve[name]["value"] == 0.0
