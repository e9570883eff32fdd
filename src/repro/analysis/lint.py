"""Project-specific AST lint rules.

Six rules encode contracts that previously existed only as prose:

``capability-probe``
    No ``hasattr(...)`` (or ``callable(getattr(...))``) capability probing
    in ``src/``: what a backend can do is a method of the
    :class:`~repro.embeddings.base.CompressedEmbedding` contract
    (``state_dict`` raises ``NotImplementedError`` where the scheme has no
    such state), so call it.
``bench-wallclock``
    ``time.time()`` drifts with NTP and has platform-dependent resolution;
    timing paths must use ``time.perf_counter()`` (wall-clock *timestamps*
    should come from :mod:`datetime`).  Inside ``tests/`` and
    ``benchmarks/`` the rule also refuses an ``assert`` on elapsed time: an
    assertion whose expression reads ``time.perf_counter()`` /
    ``time.monotonic()`` — directly or through a local name assigned from
    one in the same function — passes or fails with the host's load, so it
    belongs to ``perf/`` (repeats, pinned threads, bounds), not to a test.
    So does an ``assert`` comparing two values of the wall-clock columns an
    experiment declares (its ``timing_columns``), such as one method's
    ``train_latency_ms`` against another's; a positivity check on one such
    value passes.  A ``while time.monotonic() < deadline:`` polling loop is
    not an assert and passes.
``mutable-default``
    Mutable default arguments (``def f(x=[])``) alias across calls.
``implicit-dtype``
    ``np.zeros/empty/ones`` without an explicit ``dtype`` in the modules
    that allocate tables or dense-network arrays (``embeddings/``,
    ``store/``, ``nn/``, ``models/``) silently allocate float64 — twice the
    footprint the paper's memory accounting assumes, and one such array
    promotes a whole float32 backward chain.  Inside ``nn/functional.py``
    the same rule also flags ``np.asarray(..., dtype=np.float64)`` and
    ``.astype(np.float64)``: an operation computes in the dtype of its
    operands, never in a hard-coded one.
``segment-sum``
    ``np.add.reduceat`` in ``src/`` outside ``repro/kernels/ops.py``.  The
    segment sum is part of the bit-exactness contract, and
    :class:`~repro.kernels.ops.SegmentSum` is its one implementation: a
    second reduceat elsewhere is a second path to keep byte-identical.
``graph-in-loop``
    An autograd graph in the training, runtime or serving loops
    (``src/repro/{training,runtime,serving}/``): an import of
    ``repro.nn.tensor`` (or of ``Tensor`` / ``make_node`` through
    ``repro.nn``), a ``make_node`` call or a ``.backward(`` call.
    Every model trains and serves over arrays (``Trainer``'s array step,
    ``predict_proba``).  One graph node remains in ``src/``, the model's
    ``forward_dense``, with the BCE node over it: the traced training step
    under ``perf/`` times the loss and the backward as separate calls.

Suppression grammar: a trailing ``# lint: allow[rule-id] <reason>`` on the
flagged line keeps the violation out of strict mode; the linter still
counts and reports every suppression so they stay auditable.  Several rules
may be allowed at once: ``# lint: allow[rule-a, rule-b] reason``.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "RULES",
    "Rule",
    "Violation",
    "LintReport",
    "lint_source",
    "lint_tree",
]

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\[([a-z0-9_,\s-]+)\]")

#: Default roots scanned under the repo, when present.
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "scripts")

#: Modules where implicit-dtype allocations matter (table storage and the
#: dense network that must stay in the store's precision).
_DTYPE_SCOPES = (
    "src/repro/embeddings/",
    "src/repro/store/",
    "src/repro/nn/",
    "src/repro/models/",
)
#: Where a hard-coded float64 conversion is flagged as well.
_NO_FLOAT64_SCOPE = "src/repro/nn/functional.py"

_NP_ALLOCATORS = frozenset({"zeros", "empty", "ones"})

#: The one module that may call ``np.add.reduceat`` (segment-sum).
_SEGMENT_SUM_HOME = "src/repro/kernels/ops.py"

#: The loops that run no autograd graph (graph-in-loop).
_GRAPH_FREE_SCOPES = ("src/repro/training/", "src/repro/runtime/", "src/repro/serving/")
_GRAPH_MODULE = "repro.nn.tensor"
_GRAPH_NAMES = frozenset({"tensor", "Tensor", "make_node"})

#: Where an ``assert`` on a clock reading is flagged (bench-wallclock).
_CLOCK_ASSERT_SCOPES = ("tests/", "benchmarks/")
_CLOCKS = frozenset({"perf_counter", "monotonic", "perf_counter_ns", "monotonic_ns"})
#: The experiment modules whose ``timing_columns`` name the wall-clock columns.
_EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"


@dataclass(frozen=True)
class Rule:
    """One lint rule: an id, a summary, and a path scope."""

    id: str
    summary: str
    scope: Callable[[str], bool]
    scope_doc: str


def _in_src(rel: str) -> bool:
    return rel.startswith("src/")


def _everywhere(rel: str) -> bool:
    return True


def _dtype_scope(rel: str) -> bool:
    return any(rel.startswith(scope) or rel == scope.rstrip("/") for scope in _DTYPE_SCOPES)


def _segment_sum_scope(rel: str) -> bool:
    return rel.startswith("src/") and rel != _SEGMENT_SUM_HOME


def _graph_free_scope(rel: str) -> bool:
    return rel.startswith(_GRAPH_FREE_SCOPES)


RULES: tuple[Rule, ...] = (
    Rule(
        id="capability-probe",
        summary="hasattr/callable(getattr(...)) capability probing",
        scope=_in_src,
        scope_doc="src/",
    ),
    Rule(
        id="bench-wallclock",
        summary=(
            "time.time() in timing code (use time.perf_counter()); in tests/ and "
            "benchmarks/, an assert on a perf_counter()/monotonic() reading or "
            "comparing two wall-clock columns"
        ),
        scope=_everywhere,
        scope_doc="everywhere",
    ),
    Rule(
        id="mutable-default",
        summary="mutable default argument (list/dict/set literal or constructor)",
        scope=_everywhere,
        scope_doc="everywhere",
    ),
    Rule(
        id="implicit-dtype",
        summary=(
            "np.zeros/empty/ones without an explicit dtype in table- or "
            "dense-allocating code; hard-coded float64 conversions in nn/functional.py"
        ),
        scope=_dtype_scope,
        scope_doc="embeddings/, store/, nn/, models/",
    ),
    Rule(
        id="segment-sum",
        summary="np.add.reduceat outside repro/kernels/ops.py (use SegmentSum)",
        scope=_segment_sum_scope,
        scope_doc="src/ except repro/kernels/ops.py",
    ),
    Rule(
        id="graph-in-loop",
        summary="repro.nn.tensor import, make_node or .backward( call in a training/serving loop",
        scope=_graph_free_scope,
        scope_doc="src/repro/training/, runtime/, serving/",
    ),
)

_RULES_BY_ID = {rule.id: rule for rule in RULES}


@dataclass(frozen=True)
class Violation:
    rule: str
    path: str  # repo-relative, posix separators
    line: int
    message: str
    suppressed: bool = False
    reason: str = ""

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{mark}"


@dataclass
class LintReport:
    violations: list[Violation] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def unsuppressed(self) -> list[Violation]:
        return [v for v in self.violations if not v.suppressed]

    @property
    def suppressed(self) -> list[Violation]:
        return [v for v in self.violations if v.suppressed]

    @property
    def suppression_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.suppressed:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return not self.unsuppressed and not self.parse_errors


def _suppressions(source: str) -> dict[int, dict[str, str]]:
    """Map line number -> {rule id -> reason} from ``# lint: allow[...]``."""
    allowed: dict[int, dict[str, str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(token.string)
            if not match:
                continue
            reason = token.string[match.end():].strip()
            line = token.start[0]
            for rule_id in match.group(1).split(","):
                allowed.setdefault(line, {})[rule_id.strip()] = reason
    except tokenize.TokenError:  # pragma: no cover - unparsable files caught by ast
        pass
    return allowed


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray"}
    return False


def _is_np_float64(node: ast.expr) -> bool:
    """``np.float64`` / ``numpy.float64`` / ``"float64"``."""
    if isinstance(node, ast.Constant):
        return node.value == "float64"
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "float64"
        and isinstance(node.value, ast.Name)
        and node.value.id in {"np", "numpy"}
    )


def _check_call(node: ast.Call, rel: str) -> Iterator[tuple[str, str]]:
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "hasattr":
            yield (
                "capability-probe",
                "hasattr() capability probe; call the CompressedEmbedding method "
                "that answers it instead",
            )
        elif func.id == "callable" and node.args and isinstance(node.args[0], ast.Call):
            inner = node.args[0].func
            if isinstance(inner, ast.Name) and inner.id == "getattr":
                yield (
                    "capability-probe",
                    "callable(getattr(...)) capability probe; call the "
                    "CompressedEmbedding method that answers it instead",
                )
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "time"
        and isinstance(func.value, ast.Name)
        and func.value.id == "time"
    ):
        yield (
            "bench-wallclock",
            "time.time() is not monotonic; use time.perf_counter() for timing "
            "(datetime for wall-clock timestamps)",
        )
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _NP_ALLOCATORS
        and isinstance(func.value, ast.Name)
        and func.value.id in {"np", "numpy"}
    ):
        has_dtype = len(node.args) >= 2 or any(
            keyword.arg == "dtype" for keyword in node.keywords
        )
        if not has_dtype:
            yield (
                "implicit-dtype",
                f"np.{func.attr}() without an explicit dtype defaults to float64; "
                "table-allocating code must pin its dtype",
            )
    called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if called == "make_node" or (called == "backward" and isinstance(func, ast.Attribute)):
        yield (
            "graph-in-loop",
            f"{called}() builds or walks an autograd graph; models train and "
            "serve over arrays (dense_forward / dense_backward)",
        )
    if rel == _NO_FLOAT64_SCOPE and isinstance(func, ast.Attribute):
        to_float64 = (
            func.attr == "asarray"
            and isinstance(func.value, ast.Name)
            and func.value.id in {"np", "numpy"}
            and any(k.arg == "dtype" and _is_np_float64(k.value) for k in node.keywords)
        ) or (func.attr == "astype" and node.args and _is_np_float64(node.args[0]))
        if to_float64:
            yield (
                "implicit-dtype",
                "hard-coded float64 conversion; a differentiable op computes in "
                "the dtype of its operands",
            )


def _is_add_reduceat(node: ast.Attribute) -> bool:
    """``np.add.reduceat`` / ``numpy.add.reduceat``, called or not."""
    owner = node.value
    return (
        node.attr == "reduceat"
        and isinstance(owner, ast.Attribute)
        and owner.attr == "add"
        and isinstance(owner.value, ast.Name)
        and owner.value.id in {"np", "numpy"}
    )


def _imports_graph(node: ast.Import | ast.ImportFrom) -> bool:
    """``import repro.nn.tensor``, ``from repro.nn.tensor import ...``, or
    the module or its graph names re-exported by ``repro.nn``."""
    if isinstance(node, ast.Import):
        return any(alias.name == _GRAPH_MODULE for alias in node.names)
    if node.module == _GRAPH_MODULE:
        return True
    return node.module == "repro.nn" and any(alias.name in _GRAPH_NAMES for alias in node.names)


def _reads_clock(node: ast.AST, tainted: set[str]) -> bool:
    """True when ``node`` calls a monotonic clock or reads a tainted name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in tainted:
            return True
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _CLOCKS:
                return True
    return False


def _clock_asserts(function: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.Assert]:
    """Asserts in ``function`` whose expression depends on a clock reading."""
    assignments: list[tuple[list[ast.expr], ast.expr]] = []
    asserts: list[ast.Assert] = []
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            assignments.append((node.targets, node.value))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value is not None:
            assignments.append(([node.target], node.value))
        elif isinstance(node, ast.Assert):
            asserts.append(node)
    if not asserts:
        return
    tainted: set[str] = set()
    grew = True
    while grew:  # fixpoint: elapsed = perf_counter() - start; ratio = a / elapsed
        grew = False
        for targets, value in assignments:
            if not _reads_clock(value, tainted):
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id not in tainted:
                        tainted.add(sub.id)
                        grew = True
    for node in asserts:
        if _reads_clock(node.test, tainted):
            yield node


@functools.cache
def _timing_columns() -> frozenset[str]:
    """Every column an experiment declares in ``timing_columns``, read from source."""
    names: set[str] = set()
    for source in sorted(_EXPERIMENTS.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.keyword) and node.arg == "timing_columns":
                names.update(ast.literal_eval(node.value))
    return frozenset(names)


def _compares_timing_columns(test: ast.expr) -> bool:
    """True when a comparison in ``test`` reads a wall-clock column on two sides."""
    columns = _timing_columns()
    for compare in ast.walk(test):
        if not isinstance(compare, ast.Compare):
            continue
        timed = sum(
            any(
                isinstance(sub, ast.Constant) and sub.value in columns
                for sub in ast.walk(operand)
            )
            for operand in [compare.left, *compare.comparators]
        )
        if timed >= 2:
            return True
    return False


def lint_source(source: str, rel: str) -> list[Violation]:
    """Lint one file's source; ``rel`` is its repo-relative posix path."""
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as error:
        raise ValueError(f"{rel}: {error}") from error
    allowed = _suppressions(source)
    violations: list[Violation] = []

    def emit(rule_id: str, line: int, message: str) -> None:
        rule = _RULES_BY_ID[rule_id]
        if not rule.scope(rel):
            return
        reason = allowed.get(line, {}).get(rule_id)
        violations.append(
            Violation(
                rule=rule_id,
                path=rel,
                line=line,
                message=message,
                suppressed=reason is not None,
                reason=reason or "",
            )
        )

    clock_asserts_seen: set[int] = set()  # a nested def is walked from its parent too
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for rule_id, message in _check_call(node, rel):
                emit(rule_id, node.lineno, message)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and _imports_graph(node):
            emit(
                "graph-in-loop",
                node.lineno,
                "repro.nn.tensor import in a training/serving loop; the built-in "
                "models run there over arrays, with no Tensor",
            )
        elif isinstance(node, ast.Attribute) and _is_add_reduceat(node):
            emit(
                "segment-sum",
                node.lineno,
                "np.add.reduceat outside repro/kernels/ops.py; sum segments with "
                "SegmentSum, the one implementation of the summation order",
            )
        elif (
            isinstance(node, ast.Assert)
            and rel.startswith(_CLOCK_ASSERT_SCOPES)
            and node.lineno not in clock_asserts_seen
            and _compares_timing_columns(node.test)
        ):
            clock_asserts_seen.add(node.lineno)
            emit(
                "bench-wallclock",
                node.lineno,
                "assert compares two wall-clock columns (an experiment's timing_columns), "
                "which depends on host load; measure time in perf/",
            )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if rel.startswith(_CLOCK_ASSERT_SCOPES):
                for clock_assert in _clock_asserts(node):
                    if clock_assert.lineno in clock_asserts_seen:
                        continue
                    clock_asserts_seen.add(clock_assert.lineno)
                    emit(
                        "bench-wallclock",
                        clock_assert.lineno,
                        "assert on a perf_counter()/monotonic() reading depends on "
                        "host load; assert structure here and measure time in perf/",
                    )
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    emit(
                        "mutable-default",
                        default.lineno,
                        f"mutable default argument in {node.name}(); "
                        "default to None and construct inside the body",
                    )
    return violations


def iter_python_files(repo: Path, roots: Iterable[str] = DEFAULT_ROOTS) -> Iterator[Path]:
    for root in roots:
        base = repo / root
        if not base.is_dir():
            continue
        yield from sorted(base.rglob("*.py"))


def lint_tree(repo: Path, roots: Iterable[str] = DEFAULT_ROOTS) -> LintReport:
    """Lint every ``*.py`` under ``roots`` relative to ``repo``."""
    report = LintReport()
    for path in iter_python_files(repo, roots):
        rel = path.relative_to(repo).as_posix()
        report.files_scanned += 1
        try:
            source = path.read_text(encoding="utf-8")
            report.violations.extend(lint_source(source, rel))
        except ValueError as error:
            report.parse_errors.append(str(error))
    report.violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return report
