"""``python -m repro.pipeline`` — deprecated shim over the consolidated CLI.

The online train→serve pipeline now lives behind the declarative front door:
``python -m repro pipeline --config c.json`` (see :mod:`repro.api.cli`).
This module keeps the historical flag-based interface working by mapping its
arguments onto a :class:`~repro.api.config.SystemConfig` and running the
same :class:`~repro.api.session.Session` the new CLI runs — so both paths
produce identical reports — while :func:`main` emits a single
:class:`DeprecationWarning`.
"""

from __future__ import annotations

import argparse
import json
import warnings
from pathlib import Path

from repro.runtime.executor import EXECUTOR_KINDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.pipeline",
        description="[deprecated: use `python -m repro pipeline --config ...`] "
                    "Online train->serve pipeline over a sharded embedding store",
    )
    parser.add_argument("--dataset", default="criteo",
                        choices=["avazu", "criteo", "kdd12", "criteotb"])
    parser.add_argument("--model", default="dlrm", choices=["dlrm", "wdl", "dcn"])
    parser.add_argument("--method", default="cafe",
                        help="embedding backend for every shard (default: cafe)")
    parser.add_argument("--field-spec", default=None,
                        help="per-field table-group spec, e.g. 'full:tiny,cafe:tail' "
                             "(overrides --method/--num-shards with a TableGroupStore)")
    parser.add_argument("--num-shards", type=int, default=2,
                        help="hash-partitioned shards in the store (default: 2)")
    parser.add_argument("--executor", default="serial", choices=EXECUTOR_KINDS,
                        help="shard fan-out runtime (default: serial)")
    parser.add_argument("--compression-ratio", type=float, default=10.0)
    parser.add_argument("--scale", default="tiny", choices=["tiny", "small", "medium"])
    parser.add_argument("--publish-every", type=int, default=10,
                        help="snapshot publish cadence in train steps (default: 10)")
    parser.add_argument("--probe-every", type=int, default=5,
                        help="serve-while-train probe cadence in steps; 0 disables (default: 5)")
    parser.add_argument("--micro-batch", type=int, default=64,
                        help="serving micro-batch size (default: 64)")
    parser.add_argument("--max-steps", type=int, default=None,
                        help="stop after this many train steps (default: whole stream)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the JSON report to this path")
    return parser


def config_from_args(args: argparse.Namespace):
    """Map the legacy flag surface onto a :class:`SystemConfig`."""
    from repro.api.config import SystemConfig

    return SystemConfig.from_dict(
        {
            "seed": args.seed,
            "data": {"dataset": args.dataset, "scale": args.scale},
            "store": {
                "spec": args.field_spec if args.field_spec is not None else args.method,
                "compression_ratio": args.compression_ratio,
                "num_shards": 1 if args.field_spec is not None else args.num_shards,
                "executor": args.executor,
            },
            "model": {"name": args.model},
            "pipeline": {
                "publish_every_steps": args.publish_every,
                "probe_every_steps": args.probe_every,
                "micro_batch": args.micro_batch,
                "max_steps": args.max_steps,
            },
        }
    )


def run_pipeline_session(args: argparse.Namespace) -> dict:
    """Build dataset/store/model via the Session, run the pipeline, return
    the legacy-shaped JSON report."""
    from repro.api.session import build

    session = build(config_from_args(args))
    report = session.run_pipeline()
    return {
        "workload": {
            "dataset": args.dataset,
            "model": args.model,
            "method": args.method,
            "field_spec": args.field_spec,
            "num_shards": args.num_shards,
            "executor": args.executor,
            "compression_ratio": args.compression_ratio,
            "scale": args.scale,
            "publish_every": args.publish_every,
            "probe_every": args.probe_every,
            "micro_batch": args.micro_batch,
            "max_steps": args.max_steps,
            "seed": args.seed,
        },
        "store": report["store"],
        "pipeline": report["pipeline"],
    }


def main(argv: list[str] | None = None) -> int:
    warnings.warn(
        "`python -m repro.pipeline` is deprecated; use "
        "`python -m repro pipeline --config path.json` (repro.api.cli)",
        DeprecationWarning,
        stacklevel=2,
    )
    args = build_parser().parse_args(argv)
    report = run_pipeline_session(args)
    text = json.dumps(report, indent=2)
    print(text)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text + "\n", encoding="utf-8")
        print(f"\nwrote {args.output}")
    return 0
