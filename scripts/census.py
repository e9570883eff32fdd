#!/usr/bin/env python3
"""Reachability census of ``src/repro``: which functions and lines does real traffic run?

Every traffic leg below runs in its own process with a tracer installed by a
generated ``sitecustomize.py`` on ``PYTHONPATH`` (``sys.settrace`` plus
``threading.settrace``), so a child process a leg starts — ``perf/run.py``
runs each workload in one — is counted too.  Each process writes, at exit,
the code objects it entered and the lines it ran inside the counted package;
a function counts as *reached* when any leg ran it.  Every function under
``src/repro`` is found with ``ast``, so decorated functions, properties,
wrapped methods and nested closures are all counted by their own body.

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

Both modes also print, and do not write to the doc, the branch listing: each
reached function's executable lines that no leg ran, leaving out ``raise``
statements and ``except`` bodies (the error paths traffic never takes).

    python scripts/census.py            # rewrite docs/census.md (~4 min on 2 vCPUs)
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
#: ``PYTHONPATH``; ``site`` imports it at the start of every process.  Only
#: frames of files under ``CENSUS_ROOT`` get a line tracer.
SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_root = os.path.realpath(os.environ["CENSUS_ROOT"]) + os.sep
_counted = {}
_entered = set()
_lines = set()


def _line(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    _entered.add(code)
    counted = _counted.get(code.co_filename)
    if counted is None:
        counted = _counted[code.co_filename] = os.path.realpath(code.co_filename).startswith(_root)
    return _line if counted else None


def _dump():
    sys.settrace(None)
    def site(code, line):
        return os.path.relpath(os.path.realpath(code.co_filename), _root), line
    reached = sorted({site(code, code.co_firstlineno) for code in _entered if _counted[code.co_filename]})
    lines = sorted({site(code, line) for code, line in _lines})
    path = os.path.join(os.environ["CENSUS_DIR"], f"{os.environ['CENSUS_LEG']}.{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"reached": reached, "lines": lines}, handle)


atexit.register(_dump)
sys.settrace(_call)
threading.settrace(_call)
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
    "repro/embeddings/cafe.py:CafeEmbedding.check_row_invariants": "invariant",
    "repro/embeddings/plan.py:ScatterPlan.__len__": "oracle",
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


def run_legs(legs: dict[str, list[str]], root: Path, cwd: Path,
             pythonpath: list[Path]) -> tuple[dict[str, set], set]:
    """Run every leg under the tracer: ``{leg: {(path, first_line), ...}}``
    (the code objects each leg entered) and ``{(path, line), ...}`` (the
    lines any leg ran), paths relative to ``root``.

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
        ran: set = set()
        for dump in dumps.iterdir():
            leg = dump.name.rsplit(".", 2)[0]
            found = json.loads(dump.read_text(encoding="utf-8"))
            reached[leg].update(map(tuple, found["reached"]))
            ran.update(map(tuple, found["lines"]))
    return reached, ran


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


def _error_lines(tree: ast.AST) -> set[int]:
    """Every line of a ``raise`` statement or an ``except`` clause."""
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, (ast.Raise, ast.ExceptHandler))
        for line in range(node.lineno, node.end_lineno + 1)
    }


def _code_lines(code, owner: Function | None, by_site: dict, found: dict) -> None:
    """Add ``code``'s lines to its function (a comprehension's or a lambda's
    to the function around it; a class body's to none), then its children's."""
    own = by_site.get(code.co_firstlineno)
    if own is not None and own.qualname.rsplit(".", 1)[-1] == code.co_name:
        owner = own
    elif not code.co_name.startswith("<"):  # a class body
        owner = None
    if owner is not None:
        found.setdefault(owner, set()).update(line for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _code_lines(const, owner, by_site, found)


def untaken_lines(package: Path, reached: set, ran: set) -> tuple[dict[Function, list[int]], int]:
    """``{function: lines no leg ran}`` over the reached functions, and how
    many lines were looked at: the executable lines of each body (not its
    signature), less ``raise`` statements and ``except`` clauses."""
    root = package.parent
    everything = functions(package)
    untaken: dict[Function, list[int]] = {}
    looked_at = 0
    for source in sorted(package.rglob("*.py")):
        path = source.relative_to(root).as_posix()
        text = source.read_text(encoding="utf-8")
        tree = ast.parse(text)
        by_site = {function.first_line: function for function in everything if function.path == path}
        found: dict[Function, set[int]] = {}
        _code_lines(compile(text, str(source), "exec"), None, by_site, found)
        # Where each body starts, by the function's first line: the lines
        # above it are its decorators and signature.
        bodies = {min([node.lineno] + [d.lineno for d in node.decorator_list]): node.body[0].lineno
                  for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        skipped = _error_lines(tree)
        for function, lines in found.items():
            if (path, function.first_line) not in reached:
                continue
            start = bodies[function.first_line]
            body = {line for line in lines - skipped if line >= start}
            looked_at += len(body)
            missed = sorted(line for line in body if (path, line) not in ran)
            if missed:
                untaken[function] = missed
    return untaken, looked_at


def _spans(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def branch_listing(package: Path, reached: set, ran: set) -> str:
    """The printed branch census: each reached function's untaken lines."""
    untaken, looked_at = untaken_lines(package, reached, ran)
    order = sorted(untaken, key=lambda function: (function.path, function.first_line))
    lines = [f"{function.key}: {_spans(untaken[function])}" for function in order]
    lines.append(f"branch census: {sum(map(len, untaken.values()))} of {looked_at} executable lines "
                 f"of reached functions untaken, in {len(untaken)} functions (raise statements "
                 "and except clauses left out)")
    return "\n".join(lines)


def census() -> tuple[str, str]:
    """``docs/census.md`` and the branch listing, from one run of the legs."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.registry import ABLATIONS, EXPERIMENTS

    specs = {**EXPERIMENTS, **ABLATIONS}
    with tempfile.TemporaryDirectory() as tree:
        shutil.copytree(REPO / "src", Path(tree, "src"))
        reached, ran = run_legs(repo_legs(list(specs), tree), REPO / "src", REPO, [REPO / "src"])
    runners = {spec.runner.__name__: name for name, spec in specs.items()}
    package = REPO / "src" / "repro"
    text = render(package, reached, KEEP, runners, KEEP_COLUMNS)
    return text, branch_listing(package, set().union(*reached.values()), ran)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 if {CENSUS_PATH.relative_to(REPO)} differs from a fresh census")
    args = parser.parse_args(argv)
    text, branches = census()
    print(branches)
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
