"""The consolidated command line: ``python -m repro <subcommand>``.

One CLI replaces the three historical entry points (``repro.cli``,
``repro.pipeline``, ``repro.serve``, now deprecation shims).  Every
workload subcommand takes the same two knobs::

    --config path.json          a SystemConfig file (defaults apply without it)
    --set section.key=value     dotted overrides, repeatable

Subcommands:

``train``            one (partial) chronological epoch + held-out AUC
``serve``            warm-up train → snapshot → micro-batched request replay
                     (``--replicas N --traffic PATTERN`` switches to the
                     delta-fed replicated tier under generated traffic)
``pipeline``         online train→publish→probe loop
``experiment``       paper tables/figures (forwards to the legacy runner:
                     ``python -m repro experiment run fig8 --scale tiny``)
``validate-config``  eagerly validate config files / directories
``describe``         print the fully resolved plan for a config
``analyze``          project lint rules + import-layering checker
                     (``--strict`` for CI, ``--write-graph`` to regenerate
                     ``docs/import_graph.md``)
"""

from __future__ import annotations

import argparse
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
                             "--set store.executor=serial|processes, "
                             "--set store.executor_workers=4)")
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

    # Forwarding subcommand: registered for --help discoverability; its
    # arguments are passed through verbatim (main() short-circuits before
    # argparse because REMAINDER does not capture leading flags).
    experiment = subparsers.add_parser(
        "experiment", help="paper tables/figures (forwards to the legacy runner)",
        add_help=False)
    experiment.add_argument("args", nargs=argparse.REMAINDER,
                            help="legacy experiment arguments (list / run / sweep ...)")
    return parser


def _load_session_config(args: argparse.Namespace):
    from repro.api.config import SystemConfig, apply_overrides, load_config

    config = load_config(args.config) if args.config is not None else SystemConfig()
    return apply_overrides(config, args.overrides)


def _emit(report: dict, output: Path | None) -> None:
    text = json.dumps(report, indent=2)
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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)

    if argv[:1] == ["experiment"]:
        from repro.cli import run_legacy_cli

        return run_legacy_cli(argv[1:])

    args = build_parser().parse_args(argv)

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
            _emit(report, args.output)
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
