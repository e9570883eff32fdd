"""The package's one command line: ``python -m repro <subcommand>``.

Every workload subcommand takes the same two knobs::

    --config path.json          a SystemConfig file (defaults apply without it)
    --set section.key=value     dotted overrides, repeatable

Subcommands:

``train``            one (partial) chronological epoch + held-out AUC
``serve``            warm-up train → snapshot → micro-batched request replay
                     (``--replicas N --traffic PATTERN`` switches to the
                     delta-fed replicated tier under generated traffic)
``pipeline``         online train→publish→probe loop
``experiment``       paper tables/figures: ``list``, ``run fig8 --scale tiny``,
                     or a free-form method x compression-ratio ``sweep``
``validate-config``  eagerly validate config files / directories
``describe``         print the fully resolved plan for a config
``analyze``          project lint rules + import-layering checker
                     (``--strict`` for CI, ``--write-graph`` to regenerate
                     ``docs/import_graph.md``)
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from repro.errors import ConfigurationError, ReproError

_CONFIG_COMMANDS = ("train", "serve", "pipeline", "describe")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="SystemConfig JSON file (defaults apply when omitted)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="dotted config override, repeatable "
                             "(e.g. --set store.num_shards=4, "
                             "--set store.optimizer=adagrad)")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the JSON report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAFE reproduction: one declarative front door "
                    "(config -> session -> train/serve/pipeline)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    help_by_command = {
        "train": "train over the day-stream and report loss/AUC",
        "serve": "warm-up train, snapshot, replay requests through the engine",
        "pipeline": "online train->serve loop with snapshot publishing",
        "describe": "print the fully resolved plan for a config",
    }
    for command in _CONFIG_COMMANDS:
        sub = subparsers.add_parser(command, help=help_by_command[command])
        _add_config_arguments(sub)
        if command == "serve":
            # Shorthands for the replicated tier (equivalent --set spelling
            # in the help keeps the dotted override path discoverable).
            sub.add_argument("--replicas", type=int, default=None, metavar="N",
                             help="serve from N delta-fed replicas behind a router "
                                  "(same as --set serve.replicas=N; 0 = single engine)")
            sub.add_argument("--traffic", default=None, metavar="PATTERN",
                             help="traffic pattern for the replicated replay: "
                                  "uniform|zipf|zipf-diurnal|zipf-burst "
                                  "(same as --set serve.traffic=PATTERN)")

    validate = subparsers.add_parser(
        "validate-config", help="validate config files (or directories of them)")
    validate.add_argument("paths", nargs="+", type=Path,
                          help="JSON config files or directories to scan")

    analyze = subparsers.add_parser(
        "analyze", help="project lint rules + import-layering checker")
    from repro.analysis.cli import add_analyze_arguments

    add_analyze_arguments(analyze)

    _add_experiment_parser(subparsers)
    return parser


def _add_experiment_parser(subparsers) -> None:
    from repro.experiments import list_experiments

    experiment = subparsers.add_parser(
        "experiment", help="paper tables/figures: list, run one, or sweep",
        description="Reproduction harness for 'CAFE: Compact, Adaptive, and Fast "
                    "Embedding' (SIGMOD 2024)")
    actions = experiment.add_subparsers(dest="action", required=True)

    actions.add_parser("list", help="list all reproducible tables and figures")

    run = actions.add_parser("run", help="run one table/figure experiment or ablation")
    run.add_argument("experiment", choices=list_experiments(include_ablations=True),
                     help="experiment id (e.g. fig8, ablation_slots)")
    run.add_argument("--scale", default="tiny", choices=["tiny", "small", "medium"],
                     help="workload scale (default: tiny)")
    run.add_argument("--seed", type=int, default=0, help="base random seed")
    run.add_argument("--output", type=Path, default=None,
                     help="write the result table to this file")

    sweep = actions.add_parser("sweep", help="free-form method x compression-ratio sweep")
    sweep.add_argument("--dataset", default="criteo",
                       choices=["avazu", "criteo", "kdd12", "criteotb"])
    sweep.add_argument("--model", default="dlrm", choices=["dlrm", "wdl", "dcn"])
    sweep.add_argument("--methods", nargs="+", default=["hash", "cafe"],
                       help="embedding methods to compare")
    sweep.add_argument("--ratios", nargs="+", type=float, default=[10.0, 100.0],
                       help="compression ratios to sweep")
    sweep.add_argument("--scale", default="tiny", choices=["tiny", "small", "medium"])
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--output", type=Path, default=None)


def _load_session_config(args: argparse.Namespace):
    from repro.api.config import SystemConfig, apply_overrides, load_config

    config = load_config(args.config) if args.config is not None else SystemConfig()
    return apply_overrides(config, args.overrides)


def _emit(text: str, output: Path | None) -> None:
    print(text)
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text + "\n", encoding="utf-8")
        print(f"\nwrote {output}")


def _config_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            found = sorted(path.glob("*.json"))
            if not found:
                raise ConfigurationError(f"directory '{path}' contains no .json configs")
            files.extend(found)
        else:
            files.append(path)
    return files


def _run_validate(paths: list[Path]) -> int:
    from repro.api.config import load_config

    failures = 0
    for path in _config_files(paths):
        try:
            config = load_config(path)
        except ConfigurationError as exc:
            failures += 1
            print(f"FAIL {path}: {exc}")
            continue
        store = config.store.spec if config.store.spec is not None else "<explicit fields>"
        print(f"ok   {path} (dataset={config.data.dataset}, store={store})")
    if failures:
        print(f"\n{failures} invalid config(s)")
        return 1
    return 0


def _experiment_kwargs(experiment_id: str, scale: str, seed: int) -> dict:
    """Map CLI options onto the (slightly heterogeneous) runner signatures."""
    from repro.experiments import EXPERIMENTS
    from repro.experiments.registry import ABLATIONS

    spec = EXPERIMENTS.get(experiment_id) or ABLATIONS[experiment_id]
    parameters = inspect.signature(spec.runner).parameters
    kwargs: dict = {}
    if "scale" in parameters:
        kwargs["scale"] = scale
    if "seed" in parameters:
        kwargs["seed"] = seed
    elif "seeds" in parameters:
        kwargs["seeds"] = (seed,)
    return kwargs


def _run_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        EXPERIMENTS,
        build_dataset,
        compare_methods,
        format_table,
        run_experiment,
    )
    from repro.experiments.registry import ABLATIONS
    from repro.experiments.reporting import ExperimentResult

    if args.action == "list":
        rows = [
            {"id": spec.experiment_id, "paper": spec.paper_reference, "title": spec.title}
            for spec in list(EXPERIMENTS.values()) + list(ABLATIONS.values())
        ]
        print(format_table(rows))
        return 0

    if args.action == "run":
        kwargs = _experiment_kwargs(args.experiment, args.scale, args.seed)
        result = run_experiment(args.experiment, **kwargs)
    else:
        dataset = build_dataset(args.dataset, scale=args.scale, seed=args.seed)
        outcomes = compare_methods(
            dataset,
            list(args.methods),
            list(args.ratios),
            model_name=args.model,
            scale=args.scale,
            seed=args.seed,
        )
        result = ExperimentResult(
            experiment_id="sweep",
            title=f"{args.model} on the {args.dataset} preset",
            rows=[o.as_row() for o in outcomes],
        )
    _emit(result.to_text(), args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "experiment":
        return _run_experiment(args)

    if args.command == "validate-config":
        try:
            return _run_validate(args.paths)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "analyze":
        from repro.analysis.cli import run_analyze

        return run_analyze(args)

    if args.command == "serve":
        if args.replicas is not None:
            args.overrides.append(f"serve.replicas={args.replicas}")
        if args.traffic is not None:
            args.overrides.append(f"serve.traffic={args.traffic}")

    try:
        config = _load_session_config(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from repro.api.session import build

    try:
        with build(config) as session:
            if args.command == "describe":
                report = session.describe()
            elif args.command == "train":
                report = session.train()
            elif args.command == "serve":
                report = session.serve()
            elif args.command == "pipeline":
                report = session.run_pipeline()
            else:  # pragma: no cover - argparse enforces the choices
                raise AssertionError("unreachable")
            _emit(json.dumps(report, indent=2), args.output)
    except (ReproError, ValueError) as exc:
        # Config-shaped mistakes that need the resolved schema to surface
        # (e.g. store.fields not matching the dataset's fields, an
        # infeasible memory budget, a [seed=N] option on a seedless
        # backend) end as a clean error, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess/CI
    sys.exit(main())
