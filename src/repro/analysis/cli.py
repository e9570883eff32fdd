"""``python -m repro analyze`` — the analysis front door.

Runs the project lint rules and the import-layering checker, prints a
summary (including every counted suppression), and optionally regenerates
``docs/import_graph.md``.  ``--strict`` turns findings into a non-zero
exit, which is how CI consumes it.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis import layers as layers_mod
from repro.analysis import lint as lint_mod

__all__ = ["add_analyze_arguments", "run_analyze"]

GRAPH_PATH = Path("docs") / "import_graph.md"


def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--root", type=Path, default=Path("."),
        help="repository root to analyze (default: current directory)")
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on any unsuppressed violation, cycle, or upward import")
    parser.add_argument(
        "--write-graph", action="store_true",
        help=f"regenerate {GRAPH_PATH.as_posix()} from the resolved import graph")


def _find_repo_root(start: Path) -> Path:
    root = start.resolve()
    if (root / "src" / "repro").is_dir():
        return root
    for parent in root.parents:
        if (parent / "src" / "repro").is_dir():
            return parent
    raise SystemExit(f"error: no src/repro under {start} or its parents")


def run_analyze(args: argparse.Namespace) -> int:
    repo = _find_repo_root(args.root)

    lint_report = lint_mod.lint_tree(repo)
    graph = layers_mod.build_import_graph(repo / "src")
    layer_report = layers_mod.check_layers(graph)

    print(f"lint: scanned {lint_report.files_scanned} files, "
          f"{len(lint_report.unsuppressed)} violation(s), "
          f"{len(lint_report.suppressed)} suppression(s)")
    for violation in lint_report.unsuppressed:
        print("  " + violation.render())
    for error in lint_report.parse_errors:
        print(f"  parse error: {error}")
    if lint_report.suppressed:
        print("suppressions by rule:")
        for rule_id, count in sorted(lint_report.suppression_counts.items()):
            print(f"  {rule_id}: {count}")
        for violation in lint_report.suppressed:
            note = f" — {violation.reason}" if violation.reason else ""
            print(f"  {violation.path}:{violation.line} [{violation.rule}]{note}")

    eager = sum(1 for e in graph.edges if e.eager and e.src != e.dst)
    print(f"layers: {len(graph.modules)} modules, {eager} eager edges, "
          f"{len(layer_report.cycles)} cycle(s), "
          f"{len(layer_report.upward)} upward import(s)")
    for line in layer_report.render_problems():
        print("  " + line)

    if args.write_graph:
        graph_path = repo / GRAPH_PATH
        graph_path.parent.mkdir(parents=True, exist_ok=True)
        graph_path.write_text(layers_mod.render_graph(graph), encoding="utf-8")
        print(f"wrote {graph_path.relative_to(repo)}")

    clean = lint_report.ok and layer_report.ok
    print("analyze: " + ("clean" if clean else "FINDINGS (see above)"))
    if args.strict and not clean:
        return 1
    return 0
