"""Import-layering checker: the package DAG, machine-enforced.

The architecture note in the README describes a strict layer order —
``nn → sketch → embeddings → store → serving → runtime → api`` — but until
now nothing checked it.  This module declares the full order, parses every
module's imports from the AST, and reports:

* **cycles** — strongly connected components in the eager (module-level)
  import graph; always an error.
* **upward imports** — an import from a lower layer into a higher one,
  eager or deferred (function-level): deferring an import hides a
  dependency from import time, not from the design, so it is an error
  too.  Deferred downward imports (a front end loading what it runs on
  demand) are fine and listed separately in the emitted graph.

:func:`render_graph` emits the resolved graph as Markdown (with a Mermaid
diagram of layer-level eager edges) into ``docs/import_graph.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "LAYERS",
    "ImportGraph",
    "LayerReport",
    "build_import_graph",
    "check_layers",
    "layer_of",
    "render_graph",
]

#: The declared layer order, lowest first.  Each entry is
#: ``(layer name, module prefixes)``; a module belongs to the entry with the
#: *longest* matching prefix, so ``repro.api.config`` lands in ``api`` even
#: though ``repro`` is declared in ``foundation``.
#: An import must point at the same or a lower layer.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("foundation", ("repro", "repro.errors", "repro.version", "repro.utils")),
    ("analysis", ("repro.analysis",)),
    ("kernels", ("repro.kernels",)),
    ("nn", ("repro.nn",)),
    ("sketch", ("repro.sketch",)),
    ("data", ("repro.data",)),
    ("embeddings", ("repro.embeddings",)),
    ("store", ("repro.store",)),
    ("models", ("repro.models",)),
    ("training", ("repro.training",)),
    ("serving", ("repro.serving",)),
    ("orchestration", ("repro.runtime", "repro.experiments")),
    ("api", ("repro.api", "repro.__main__")),
)


def layer_of(module: str, layers: tuple[tuple[str, tuple[str, ...]], ...] = LAYERS) -> tuple[int, str]:
    """``(index, name)`` of the layer owning ``module`` (longest prefix wins)."""
    best: tuple[int, str] | None = None
    best_len = -1
    for index, (name, prefixes) in enumerate(layers):
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                if len(prefix) > best_len:
                    best, best_len = (index, name), len(prefix)
    if best is None:
        raise ValueError(f"module {module!r} matches no declared layer prefix")
    return best


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    line: int
    eager: bool  # module-level (True) vs function-level (False)


@dataclass
class ImportGraph:
    package: str
    modules: set[str] = field(default_factory=set)
    edges: list[Edge] = field(default_factory=list)

    def eager_adjacency(self) -> dict[str, set[str]]:
        adjacency: dict[str, set[str]] = {module: set() for module in self.modules}
        for edge in self.edges:
            if edge.eager and edge.src != edge.dst:
                adjacency.setdefault(edge.src, set()).add(edge.dst)
        return adjacency


class _ImportCollector(ast.NodeVisitor):
    """Collects intra-package imports, tagging function-level ones deferred."""

    def __init__(self, graph: ImportGraph, module: str, is_package: bool):
        self.graph = graph
        self.module = module
        self.is_package = is_package
        self.depth = 0  # nested function depth

    def _note(self, target: str, line: int) -> None:
        root = self.graph.package
        if target != root and not target.startswith(root + "."):
            return
        target = _resolve_submodule(self.graph, target)
        self.graph.edges.append(
            Edge(src=self.module, dst=target, line=line, eager=self.depth == 0)
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._note(alias.name, node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            # Relative import: resolve against this module's package.
            parts = self.module.split(".")
            # A package's own __init__ counts as one level deeper.
            anchor = parts[: len(parts) - node.level + (1 if self.is_package else 0)]
            base = ".".join(anchor + ([node.module] if node.module else []))
        else:
            base = node.module or ""
        if not base:
            return
        root = self.graph.package
        if base != root and not base.startswith(root + "."):
            return
        for alias in node.names:
            candidate = f"{base}.{alias.name}"
            if candidate in self.graph.modules:
                self._note(candidate, node.lineno)
            else:
                self._note(base, node.lineno)


def _resolve_submodule(graph: ImportGraph, target: str) -> str:
    # ``import a.b.c`` introduces dependencies on every ancestor package,
    # but the meaningful edge is the deepest module that actually exists.
    while target not in graph.modules and "." in target:
        target = target.rsplit(".", 1)[0]
    return target


def _module_name(path: Path, src_root: Path) -> tuple[str, bool]:
    rel = path.relative_to(src_root).with_suffix("")
    parts = list(rel.parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    return ".".join(parts), is_package


def build_import_graph(src_root: Path, package: str = "repro") -> ImportGraph:
    """Parse every module under ``src_root/package`` into an import graph."""
    graph = ImportGraph(package=package)
    paths = sorted((src_root / package).rglob("*.py"))
    named = []
    for path in paths:
        module, is_package = _module_name(path, src_root)
        graph.modules.add(module)
        named.append((path, module, is_package))
    for path, module, is_package in named:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _ImportCollector(graph, module, is_package).visit(tree)
    return graph


@dataclass
class LayerReport:
    cycles: list[list[str]] = field(default_factory=list)
    upward: list[tuple[Edge, str, str]] = field(default_factory=list)  # edge, src layer, dst layer

    @property
    def ok(self) -> bool:
        return not self.cycles and not self.upward

    def render_problems(self) -> list[str]:
        lines = []
        for cycle in self.cycles:
            lines.append("import cycle: " + " -> ".join(cycle + cycle[:1]))
        for edge, src_layer, dst_layer in self.upward:
            where = "at module level" if edge.eager else "in a function"
            lines.append(
                f"upward import: {edge.src} (layer '{src_layer}') imports "
                f"{edge.dst} (layer '{dst_layer}') {where} (line {edge.line}); "
                "either the layer table or the import is wrong"
            )
        return lines


def _strongly_connected(adjacency: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's SCC; returns only components with an actual cycle."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    result: list[list[str]] = []
    counter = [0]

    def strongconnect(node: str) -> None:
        # Iterative to survive deep graphs.
        work = [(node, iter(sorted(adjacency.get(node, ()))))]
        index_of[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, children = work[-1]
            advanced = False
            for child in children:
                if child not in index_of:
                    index_of[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(adjacency.get(child, ())))))
                    advanced = True
                    break
                if child in on_stack:
                    low[current] = min(low[current], index_of[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[current])
            if low[current] == index_of[current]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1:
                    result.append(sorted(component))

    for node in sorted(adjacency):
        if node not in index_of:
            strongconnect(node)
    # Self-loops (module importing itself) never happen via `import`, so
    # only multi-module components are cycles.
    return result


def check_layers(
    graph: ImportGraph,
    layers: tuple[tuple[str, tuple[str, ...]], ...] = LAYERS,
) -> LayerReport:
    report = LayerReport()
    report.cycles = _strongly_connected(graph.eager_adjacency())
    for edge in graph.edges:
        if edge.src == edge.dst:
            continue
        src_index, src_layer = layer_of(edge.src, layers)
        dst_index, dst_layer = layer_of(edge.dst, layers)
        if dst_index > src_index:
            report.upward.append((edge, src_layer, dst_layer))
    return report


def render_graph(
    graph: ImportGraph,
    layers: tuple[tuple[str, tuple[str, ...]], ...] = LAYERS,
) -> str:
    """Markdown rendering of the resolved layer graph (goes to docs/)."""
    by_layer: dict[str, list[str]] = {name: [] for name, _ in layers}
    for module in sorted(graph.modules):
        _, name = layer_of(module, layers)
        by_layer[name].append(module)

    # Aggregate module edges up to layer edges.
    eager_layer_edges: set[tuple[str, str]] = set()
    deferred_layer_edges: set[tuple[str, str]] = set()
    for edge in graph.edges:
        src_index, src_layer = layer_of(edge.src, layers)
        dst_index, dst_layer = layer_of(edge.dst, layers)
        if src_layer == dst_layer:
            continue
        bucket = eager_layer_edges if edge.eager else deferred_layer_edges
        bucket.add((src_layer, dst_layer))

    lines = [
        "# Import graph",
        "",
        "<!-- Generated by `python -m repro analyze --write-graph`; do not edit by hand. -->",
        "",
        "The declared layer order (lowest first); an import, eager (module-level)",
        "or deferred (function-level), may only point at the same or a lower",
        "layer.  Deferred edges are listed separately.",
        "",
        "| # | Layer | Modules |",
        "|---|-------|---------|",
    ]
    for index, (name, _) in enumerate(layers):
        modules = by_layer[name]
        shown = ", ".join(f"`{module}`" for module in modules) if modules else "*(none)*"
        lines.append(f"| {index} | {name} | {shown} |")

    lines += [
        "",
        "## Layer-level eager edges",
        "",
        "```mermaid",
        "graph TD",
    ]
    for src_layer, dst_layer in sorted(eager_layer_edges):
        lines.append(f"    {src_layer} --> {dst_layer}")
    lines += ["```", ""]

    deferred_only = sorted(deferred_layer_edges - eager_layer_edges)
    lines += ["## Deferred (function-level) cross-layer edges", ""]
    if deferred_only:
        lines += [f"- `{src}` -> `{dst}` (deferred only)" for src, dst in deferred_only]
    else:
        lines.append("*(none)*")
    lines += [
        "",
        f"Modules: {len(graph.modules)} · eager edges: "
        f"{sum(1 for e in graph.edges if e.eager and e.src != e.dst)} · deferred edges: "
        f"{sum(1 for e in graph.edges if not e.eager and e.src != e.dst)}",
        "",
    ]
    return "\n".join(lines)
