#!/usr/bin/env python3
"""Reachability census of ``src/repro``: which functions does real traffic run?

Every traffic leg below runs in its own process with a profiler installed by a
generated ``sitecustomize.py`` on ``PYTHONPATH`` (``sys.setprofile`` plus
``threading.setprofile``), so a child process a leg starts — ``perf/run.py``
runs each workload in one — is counted too.  Each process writes the code
objects it entered at exit; a function counts as *reached* when any leg ran
it.  Every function under ``src/repro`` is found with ``ast``, so decorated
functions, properties, wrapped methods and nested closures are all counted
by their own body.

The traffic is what this repository runs for real:

* every ``EXPERIMENTS`` and ``ABLATIONS`` runner at ``tiny`` scale;
* ``train`` / ``serve`` / ``pipeline`` / ``describe`` over each
  ``examples/configs/*.json``, and ``validate-config``;
* CI's pipeline and ``serve --replicas 3`` smokes, ``analyze --strict`` and
  ``analyze --write-graph`` (against a copy of ``src/``);
* every ``examples/*.py``;
* ``perf/run.py --smoke`` (every workload, untraced and traced);
* ``scripts/checkpoint_migration_smoke.py``.

It writes ``docs/census.md`` with two lists: the functions no leg reaches
(reached only by tests, if at all), and the git-ignored experiment columns
that no test names, with the functions only their experiment reaches.  An
unreached function is kept only with a one-word reason in :data:`KEEP`, and
such a column only with one in :data:`KEEP_COLUMNS`; one without a reason is
a *finding*.  Findings are listed, not refused: ``--check`` pins them with
the rest of the doc.

    python scripts/census.py            # rewrite docs/census.md (~3 min)
    python scripts/census.py --check    # exit 1 if docs/census.md is stale
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CENSUS_PATH = REPO / "docs" / "census.md"

#: Written next to nothing else in a temporary directory that leads
#: ``PYTHONPATH``; ``site`` imports it at the start of every process.
SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_entered = set()


def _profile(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    root = os.environ["CENSUS_ROOT"]
    files = {code.co_filename: os.path.realpath(code.co_filename) for code in _entered}
    reached = sorted({
        (os.path.relpath(files[code.co_filename], root), code.co_firstlineno)
        for code in _entered
        if files[code.co_filename].startswith(root + os.sep)
    })
    path = os.path.join(os.environ["CENSUS_DIR"], f"{os.environ['CENSUS_LEG']}.{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reached, handle)


atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''

#: Why a function no leg reaches stays.  A key is a module path relative to
#: ``src/`` (the whole module), ``path:Class`` (the class and everything in
#: it) or ``path:qualname``.
KEEP_REASONS = {
    "abstract": "a base-class hook every concrete class overrides",
    "oracle": "what a kept test checks the system against, or observes it through",
    "invariant": "a consistency check tests and the sanitizer call",
    "error-path": "runs only on bad input or a failed check, which the traffic never makes",
    "parked": "real-dataset loading (ROADMAP Parked)",
}
KEEP: dict[str, str] = {
    "repro/analysis/lint.py:_everywhere": "error-path",
    "repro/analysis/lint.py:Violation.render": "error-path",
    "repro/analysis/lint.py:LintReport.suppression_counts": "error-path",
    "repro/analysis/sanitizer.py:assert_unaliased": "invariant",
    "repro/analysis/sanitizer.py:_WriterGuard": "invariant",
    "repro/analysis/sanitizer.py:_guard_for": "invariant",
    "repro/api/config.py:_unknown_key_error": "error-path",
    "repro/data/criteo.py": "parked",
    "repro/data/drift.py:DriftModel.permutation_for_day": "abstract",
    "repro/data/schema.py:DatasetSchema.to_global_ids": "oracle",
    "repro/data/stats.py:frequency_skew_summary": "oracle",
    "repro/embeddings/ada_embed.py:AdaEmbed.num_allocated": "oracle",
    "repro/embeddings/base.py:CompressedEmbedding.gather": "abstract",
    "repro/embeddings/base.py:CompressedEmbedding.apply": "abstract",
    "repro/embeddings/base.py:CompressedEmbedding.memory_floats": "abstract",
    "repro/embeddings/base.py:CompressedEmbedding._write_state": "abstract",
    "repro/embeddings/base.py:CompressedEmbedding.merged_sketch": "error-path",
    "repro/embeddings/cafe.py:CafeEmbedding.check_row_invariants": "invariant",
    "repro/embeddings/plan.py:ScatterPlan.__len__": "oracle",
    "repro/embeddings/plan.py:FreeRowPool.__iter__": "oracle",
    "repro/embeddings/plan.py:FreeRowPool.__contains__": "oracle",
    "repro/embeddings/plan.py:FreeRowPool.remove": "oracle",
    "repro/experiments/reporting.py:ExperimentResult.filter_rows": "oracle",
    "repro/models/base.py:RecommendationModel.dense_forward": "abstract",
    "repro/models/base.py:RecommendationModel.dense_backward": "abstract",
    "repro/nn/optim.py:Optimizer._compute_update": "abstract",
    "repro/nn/optim.py:RowOptimizer.fused_apply": "abstract",
    "repro/serving/batcher.py:MicroBatcher._serving_model": "abstract",
    "repro/serving/batcher.py:MicroBatcher._serve_in_range": "error-path",
    "repro/sketch/analysis.py:retention_probability_uniform": "oracle",
    "repro/sketch/analysis.py:expected_bucket_noise": "oracle",
    "repro/store/sharded.py:ShardedEmbeddingStore.__reduce_ex__": "error-path",
}
#: Why a git-ignored column no test names stays: ``{column: reason}``.
KEEP_COLUMN_REASONS = {
    "paper": "a metric the paper's figure reports",
}
KEEP_COLUMNS: dict[str, str] = {
    "inference_throughput": "paper",
}


@dataclass(frozen=True)
class Function:
    path: str  # relative to the census root, e.g. "repro/store/sharded.py"
    qualname: str
    first_line: int  # the first decorator's line: what ``co_firstlineno`` holds
    lines: int

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"


def _walk(node: ast.AST, prefix: str, path: str, found: list[Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            first = min([child.lineno] + [decorator.lineno for decorator in child.decorator_list])
            found.append(Function(path, qualname, first, child.end_lineno - first + 1))
            _walk(child, qualname + ".<locals>.", path, found)
        elif isinstance(child, ast.ClassDef):
            _walk(child, prefix + child.name + ".", path, found)
        else:
            _walk(child, prefix, path, found)


def functions(package: Path) -> list[Function]:
    """Every ``def`` under ``package``, sorted by path and line."""
    found: list[Function] = []
    root = package.parent
    for source in sorted(package.rglob("*.py")):
        path = source.relative_to(root).as_posix()
        _walk(ast.parse(source.read_text(encoding="utf-8")), "", path, found)
    return sorted(found, key=lambda function: (function.path, function.first_line))


def run_legs(legs: dict[str, list[str]], root: Path, cwd: Path, pythonpath: list[Path]) -> dict[str, set]:
    """Run every leg under the profiler; ``{leg: {(path, first_line), ...}}``.

    ``root`` is the directory the counted package sits in; a leg whose
    command fails raises ``RuntimeError`` with its output.
    """
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir = Path(scratch, "hook")
        dumps = Path(scratch, "dumps")
        hook_dir.mkdir()
        dumps.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        paths = [str(hook_dir)] + [str(path.resolve()) for path in pythonpath]
        for name, argv in legs.items():
            argv = [arg.replace("{scratch}", scratch) for arg in argv]
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), CENSUS_ROOT=str(root.resolve()),
                       CENSUS_DIR=str(dumps), CENSUS_LEG=name)
            done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise RuntimeError(f"leg {name} failed ({done.returncode}):\n{done.stdout[-2000:]}"
                                   f"\n{done.stderr[-4000:]}")
            print(f"census: {name}", file=sys.stderr)
        reached: dict[str, set] = {name: set() for name in legs}
        for dump in dumps.iterdir():
            leg = dump.name.rsplit(".", 2)[0]
            reached[leg].update(map(tuple, json.loads(dump.read_text(encoding="utf-8"))))
    return reached


def repo_legs(experiments: list[str], scratch_src: str) -> dict[str, list[str]]:
    """The traffic legs of this repository (see the module docstring)."""
    python = sys.executable
    cli = [python, "-m", "repro"]
    legs = {f"experiment-{name}": cli + ["experiment", "run", name, "--scale", "tiny"]
            for name in experiments}
    for config in sorted((REPO / "examples" / "configs").glob("*.json")):
        for command in ("train", "serve", "pipeline", "describe"):
            legs[f"{command}-{config.stem}"] = cli + [command, "--config", str(config)]
    legs["validate-config"] = cli + ["validate-config", "examples/configs"]
    legs["ci-pipeline"] = cli + [
        "pipeline", "--set", "store.num_shards=2", "--set", "store.executor=serial",
        "--set", "pipeline.max_steps=20", "--set", "pipeline.publish_every_steps=5",
        "--set", "pipeline.probe_every_steps=2"]
    legs["ci-serve-replicas"] = cli + ["serve", "--replicas", "3", "--set", "serve.warmup_steps=8"]
    legs["ci-serve-replicas-hash"] = legs["ci-serve-replicas"] + ["--set", "store.spec=hash"]
    legs["ci-serve-replicas-stack"] = legs["ci-serve-replicas"] + ["--set", "store.num_shards=2"]
    legs["analyze-strict"] = cli + ["analyze", "--strict"]
    legs["analyze-write-graph"] = cli + ["analyze", "--write-graph", "--root", scratch_src]
    for example in sorted((REPO / "examples").glob("*.py")):
        legs[f"example-{example.stem}"] = [python, str(example)]
    legs["perf-smoke"] = [python, "perf/run.py", "--smoke", "--out", "{scratch}/perf.json"]
    legs["checkpoint-smoke"] = [python, "scripts/checkpoint_migration_smoke.py"]
    return legs


def keep_reason(function: Function, keep: dict[str, str]) -> str | None:
    for key in (function.key, function.path):
        if key in keep:
            return keep[key]
    parts = function.qualname.split(".")
    for end in range(len(parts) - 1, 0, -1):
        reason = keep.get(f"{function.path}:{'.'.join(parts[:end])}")
        if reason:
            return reason
    return None


def timing_columns(package: Path) -> dict[str, tuple[str, ...]]:
    """``{runner name: its ExperimentResult's timing_columns}``, read from source."""
    found = {}
    for source in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                for keyword in getattr(call, "keywords", ()) if isinstance(call, ast.Call) else ():
                    if keyword.arg == "timing_columns":
                        found[node.name] = tuple(ast.literal_eval(keyword.value))
    return found


def asserted_names(directories: list[Path]) -> set[str]:
    """Every quoted identifier in the test files: a column a test names."""
    names: set[str] = set()
    for directory in directories:
        for source in directory.rglob("*.py"):
            names.update(re.findall(r"[\"'](\w+)[\"']", source.read_text(encoding="utf-8")))
    return names


def render(package: Path, reached: dict[str, set], keep: dict[str, str], runners: dict[str, str],
           keep_columns: dict[str, str] | None = None) -> str:
    """``docs/census.md``; ``runners`` maps a runner function's name to its
    experiment id (whose leg is ``experiment-<id>``)."""
    keep_columns = {} if keep_columns is None else keep_columns
    unknown = sorted(set(keep.values()) - set(KEEP_REASONS))
    unknown += sorted(set(keep_columns.values()) - set(KEEP_COLUMN_REASONS))
    if unknown:
        raise SystemExit(f"keep reasons not in KEEP_REASONS / KEEP_COLUMN_REASONS: {unknown}")
    everything = functions(package)
    union = set().union(*reached.values())
    unreached = [function for function in everything if (function.path, function.first_line) not in union]
    stale = [key for key in keep if not any(keep_reason(function, {key: "-"}) for function in unreached)]
    if stale:
        raise SystemExit(f"keep-list entries that match no unreached function: {stale}")
    reasons = [keep_reason(function, keep) for function in unreached]
    rows = [f"| `{function.key}` | {function.lines} | {reason or '**finding**'} |"
            for function, reason in zip(unreached, reasons)]
    by_reason = ", ".join(f"{name} {reasons.count(name)}" for name in KEEP_REASONS if name in reasons)
    named = asserted_names([REPO / "tests", REPO / "benchmarks"])
    silent_columns = {runner: [column for column in columns if column not in named]
                      for runner, columns in sorted(timing_columns(package).items())}
    column_findings = sum(column not in keep_columns for columns in silent_columns.values()
                          for column in columns)
    stale_columns = [column for column in keep_columns
                     if not any(column in columns for columns in silent_columns.values())]
    if stale_columns:
        raise SystemExit(f"KEEP_COLUMNS entries that match no unnamed column: {stale_columns}")
    lines = [
        "# Reachability census",
        "",
        "Generated by `python scripts/census.py` on Python 3.11 (`--check` in CI",
        "fails when this file is stale, so a change that adds or removes a",
        "finding must regenerate it). A function is *reached* when any traffic",
        "leg runs it; the legs are listed in the script's docstring. A branch no",
        "leg takes is invisible here: a function whose only non-test caller sits",
        "behind such a branch is listed as reached only by tests, so grep for its",
        "callers before deleting it.",
        "",
        f"- functions under `src/{package.name}`: {len(everything)}",
        f"- reached by traffic: {len(everything) - len(unreached)}",
        f"- reached only by tests (or by nothing): {len(unreached)} functions, "
        f"{sum(function.lines for function in unreached)} lines",
        f"- kept, by reason: {by_reason or 'none'}",
        f"- without a keep reason (findings): {reasons.count(None)}",
        f"- git-ignored columns no test names, without a keep reason (findings): {column_findings}",
        "",
        "## Reached only by tests",
        "",
        "Keep reasons: " + "; ".join(f"`{name}` — {text}" for name, text in KEEP_REASONS.items()) + ".",
        "",
        "| function | lines | reason |",
        "|---|---|---|",
        *rows,
        "",
        "## Git-ignored columns no test names",
        "",
        "Columns an experiment writes only to the git-ignored",
        "`benchmarks/results/timing/` tables that no file under `tests/` or",
        "`benchmarks/` names, with their keep reason and the functions no other",
        "leg reaches. The rule is weak: a name quoted there for any reason counts",
        "as named, so a quote that asserts nothing takes a column off this list,",
        "and a column missing from it is not evidence that anything checks it.",
        "",
        "Column keep reasons: " + "; ".join(f"`{name}` — {text}" for name, text in KEEP_COLUMN_REASONS.items()) + ".",
        "",
    ]
    everything_by_site = {(function.path, function.first_line): function for function in everything}
    entries = 0
    for runner, silent in silent_columns.items():
        leg = f"experiment-{runners[runner]}"
        if not silent:
            continue
        others = set().union(*(sites for name, sites in reached.items() if name != leg))
        only = sorted(everything_by_site[site].key for site in reached[leg] - others if site in everything_by_site)
        described = ", ".join(f"`{column}` ({keep_columns.get(column, '**finding**')})" for column in silent)
        lines.append(f"- `{runners[runner]}`: {described}; "
                     f"only it reaches {', '.join(f'`{key}`' for key in only) or 'nothing'}")
        entries += 1
    if not entries:
        lines.append("None.")
    return "\n".join(lines) + "\n"


def census_text() -> str:
    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.registry import ABLATIONS, EXPERIMENTS

    specs = {**EXPERIMENTS, **ABLATIONS}
    with tempfile.TemporaryDirectory() as tree:
        shutil.copytree(REPO / "src", Path(tree, "src"))
        reached = run_legs(repo_legs(list(specs), tree), REPO / "src", REPO, [REPO / "src"])
    runners = {spec.runner.__name__: name for name, spec in specs.items()}
    return render(REPO / "src" / "repro", reached, KEEP, runners, KEEP_COLUMNS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 if {CENSUS_PATH.relative_to(REPO)} differs from a fresh census")
    args = parser.parse_args(argv)
    text = census_text()
    if args.check:
        current = CENSUS_PATH.read_text(encoding="utf-8") if CENSUS_PATH.exists() else ""
        if current != text:
            print(f"{CENSUS_PATH.relative_to(REPO)} is stale; run python scripts/census.py")
            return 1
        print(f"{CENSUS_PATH.relative_to(REPO)} is current")
        return 0
    CENSUS_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {CENSUS_PATH.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
