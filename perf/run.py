#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the CAFE reproduction.

One run (what ``BENCHMARK.json``'s ``command`` starts)::

    python3 perf/run.py --workload train_dense --seed 0 --seconds 18 --trace 0

builds the workload through ``repro.api.build``, measures it for ``--seconds``,
checks its outputs, prints every metric by name with its unit and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
is the untraced run that gives the end-to-end metrics; ``--trace 1`` is the
traced twin that gives the per-layer metrics.

The whole suite (every workload, untraced then traced, one child process
each)::

    python3 perf/run.py [--seed N] [--seconds S] [--out FILE] [--trace-dir DIR] [--smoke]

writes one result file for ``perf/compare.py``.  Both forms exit non-zero on
a failed check.  See perf/README.md for the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO = PERF_DIR.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-ups per untraced run; `setup_s` is their median.
SETUP_REPEATS = 3
#: Share of a traced run spent on the untraced reference twin.
REFERENCE_SHARE = 0.3


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartile_spread(values) -> float:
    import numpy as np

    q1, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 75])
    return float(q3 - q1)


def segment_metric(segments, column: int, samples: int, rate: bool = False) -> dict:
    """Median over segments of one host-corrected column; the raw median beside it."""
    import numpy as np

    raw = np.asarray([segment[column] for segment in segments], dtype=np.float64)
    factor = np.asarray([segment[3] for segment in segments], dtype=np.float64)
    corrected = raw / factor if rate else raw * factor
    return {"value": float(np.median(corrected)), "iqr": quartile_spread(corrected),
            "n": samples, "raw": float(np.median(raw))}


def collect_env(seed: int, smoke: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "seed": seed,
        "smoke": smoke,
    }


# ---------------------------------------------------------------------- #
# One run (in this process)
# ---------------------------------------------------------------------- #
def run_untraced(workloads, workload, seed: int, seconds: float, smoke: bool,
                 check_floor: bool) -> dict:
    import gc
    import resource
    import time

    import numpy as np

    host = workloads.host_speed(workload)
    setups, raw_setups = [], []
    system = None
    speed_before = host.sample_ms()
    for _ in range(1 if smoke else SETUP_REPEATS):
        del system
        gc.collect()
        start = time.perf_counter()
        system = workloads.make_system(workload, seed, smoke)
        raw_setups.append(time.perf_counter() - start)
        speed_after = host.sample_ms()
        setups.append(raw_setups[-1] * host.factor(speed_before, speed_after))
        speed_before = speed_after

    run = workloads.measure(
        system,
        system.op,
        seconds,
        workloads.smoke_size(workload.segment_ops, smoke),
        host,
        min_rows=int(workload.quality_rows_per_s * seconds),
        at_min_rows=system.quality,
    )
    loss, auc = run["at_min_rows"]
    ops = int(run["latencies_ms"].size)
    checks = system.final_checks()
    if check_floor:
        checks.append(("auc_above_floor", auc >= workload.auc_floor,
                       f"auc {auc:.4f}, floor {workload.auc_floor}"))
    constant = {"iqr": 0.0, "n": 1}
    metrics = {
        "rows_per_s": segment_metric(run["segments"], 0, ops, rate=True),
        "op_p50_ms": segment_metric(run["segments"], 1, ops),
        "op_p99_ms": segment_metric(run["segments"], 2, ops),
        "logloss": {"value": loss, **constant},
        "auc": {"value": auc, **constant},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, **constant
        },
        "setup_s": {
            "value": float(np.median(setups)), "iqr": quartile_spread(setups),
            "n": len(setups), "raw": float(np.median(raw_setups)),
        },
    }
    return {"metrics": metrics, "checks": checks,
            "attempted": system.attempted, "failed": system.failed}


def run_traced(workloads, workload, seed: int, seconds: float, smoke: bool,
               trace_out: str | None) -> dict:
    import numpy as np

    from tracer import Tracer

    # The untraced reference twin: same seed, same ops, library calls only.
    reference = workloads.make_system(workload, seed, smoke)
    ops = workloads.smoke_size(workload.segment_ops, smoke)
    host = workloads.host_speed(workload)
    ref_run = workloads.measure(reference, reference.op, seconds * REFERENCE_SHARE, ops, host)
    ref_outputs = reference.twin_outputs()
    if workload.kind == "serve":
        twin = reference  # nothing trains, so the same engine serves both twins
        twin.rewind()
    else:
        twin = workloads.make_system(workload, seed, smoke)
    tracer = Tracer()
    run = workloads.measure(
        twin, lambda: twin.traced_op(tracer), seconds * (1.0 - REFERENCE_SHARE), ops, host,
        min_rows=ref_run["rows"],
    )
    outputs = twin.twin_outputs()[: ref_outputs.size]
    common = int(ref_run["latencies_ms"].size)
    layers = twin.per_layer(tracer)
    # Layer times are raw; multiply by this to compare runs taken at
    # different host speeds.
    layers["host.speed_factor"] = float(np.median([segment[3] for segment in run["segments"]]))
    layers["trace.overhead_pct"] = 100.0 * (
        float(np.median(run["latencies_ms"][:common])) / float(np.median(ref_run["latencies_ms"]))
        - 1.0
    )
    checks = twin.final_checks()
    checks.append((
        "traced_twin_bit_identical",
        outputs.size == ref_outputs.size and np.array_equal(outputs, ref_outputs),
        f"{ref_outputs.size} losses/replies of the traced twin vs the untraced run",
    ))
    if not smoke:
        for name in ("training.layer_sum_ratio", "serving.layer_sum_ratio",
                     "serving.publish_layer_sum_ratio"):
            if name in layers:
                checks.append((name, 0.90 <= layers[name] <= 1.0,
                               f"children / parent = {layers[name]:.4f}, wanted [0.90, 1.00]"))
    if trace_out:
        tracer.write_chrome_trace(trace_out)
    samples = int(run["latencies_ms"].size)
    systems = [twin] if twin is reference else [reference, twin]
    return {
        "metrics": {name: {"value": float(value), "iqr": 0.0, "n": samples}
                    for name, value in layers.items()},
        "checks": checks,
        "attempted": sum(system.attempted for system in systems),
        "failed": sum(system.failed for system in systems),
    }


def run_one(args) -> int:
    spec = load_spec()
    if not (REPO / "src" / "repro").is_dir():
        print(f"perf/run.py: {REPO / 'src' / 'repro'} not found; the benchmark "
              "measures the library in this checkout", file=sys.stderr)
        return 2
    # Pinned before numpy is imported: default OpenBLAS threading alone is a
    # 3x swing of every number here on a 2-vCPU host.
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path[:0] = [str(REPO / "src"), str(PERF_DIR)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload '{args.workload}'; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = collect_env(args.seed, args.smoke)
    if args.trace:
        result = run_traced(workloads, workload, args.seed, args.seconds, args.smoke,
                            args.trace_out)
        declared = spec["per_layer"]
    else:
        # The floors were recorded at run_seconds; the quality point moves with --seconds.
        result = run_untraced(workloads, workload, args.seed, args.seconds, args.smoke,
                              check_floor=not args.smoke and args.seconds == spec["run_seconds"])
        declared = spec["end_to_end"]

    units = {metric["name"]: metric["unit"] for metric in declared}
    unknown = set(result["metrics"]) - set(units)
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    # A layer a workload never calls reports 0: that is the measurement.
    absent = {"value": 0.0, "iqr": 0.0, "n": 0}
    metrics = {name: {**result["metrics"].get(name, absent), "unit": unit}
               for name, unit in units.items()}
    if not args.trace and set(result["metrics"]) != set(units):
        raise SystemExit(f"end-to-end metrics missing: {sorted(set(units) - set(result['metrics']))}")

    failed_checks = [check for check in result["checks"] if not check[1]]
    failed = result["failed"] + len(failed_checks)
    correct = failed == 0
    print(f"# {workload.name}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}  smoke={args.smoke}")
    for name, metric in metrics.items():
        raw = f"  raw {metric['raw']:.6f}" if "raw" in metric else ""
        print(f"{name:36s} {metric['value']:16.6f} {metric['unit']:8s} "
              f"iqr {metric['iqr']:.6f}  n {metric['n']}{raw}")
    for name, ok, detail in result["checks"]:
        print(f"check {name:34s} {'ok' if ok else 'FAILED'}  ({detail})")
    print(f"attempted {result['attempted']}  failed {failed}")
    detail = {
        "workload": workload.name, "trace": args.trace, "env": env, "metrics": metrics,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in result["checks"]],
        "attempted": result["attempted"], "failed": failed,
    }
    print("detail " + json.dumps(detail, allow_nan=False))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(failed),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }, allow_nan=False))
    return 0 if correct else 1


# ---------------------------------------------------------------------- #
# The suite (one child process per run)
# ---------------------------------------------------------------------- #
def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def run_suite(args) -> int:
    spec = load_spec()
    seconds = args.seconds
    out = Path(args.out) if args.out else PERF_DIR / "out" / "result.json"
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    report = {"commit": git_commit(), "seed": args.seed, "seconds": seconds,
              "smoke": args.smoke, "bounds": {m["name"]: m for m in spec["end_to_end"]},
              "workloads": {}}
    all_correct = True
    for entry in spec["workloads"]:
        name = entry["name"]
        row = report["workloads"][name] = {"why": entry["why"]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            command = [sys.executable, str(PERF_DIR / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            if trace and args.trace_dir:
                command += ["--trace-out", str(Path(args.trace_dir) / f"{name}.trace.json")]
            done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-2]) + "\n\n")
            if done.returncode not in (0, 1) or len(lines) < 2 or not lines[-2].startswith("detail "):
                sys.stderr.write(done.stderr)
                print(f"{name} (trace={trace}) produced no result, exit {done.returncode}")
                return 2
            detail = json.loads(lines[-2][len("detail "):])
            report.setdefault("env", detail["env"])
            row[key] = detail["metrics"]
            row.setdefault("checks", []).extend(detail["checks"])
            row[f"{key}_attempted"] = detail["attempted"]
            row[f"{key}_failed"] = detail["failed"]
            all_correct = all_correct and done.returncode == 0
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}; all checks {'passed' if all_correct else 'FAILED'}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process (the BENCHMARK.json form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: untraced, end-to-end metrics; 1: traced twin, per-layer metrics")
    parser.add_argument("--trace-out", help="with --workload --trace 1: write Chrome trace events here")
    parser.add_argument("--trace-dir", help="suite: write <workload>.trace.json files here")
    parser.add_argument("--out", help="suite: result file (default perf/out/result.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set-up, no timing-dependent checks")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(load_spec()["run_seconds"])
    return run_suite(args) if args.workload is None else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
