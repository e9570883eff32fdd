"""Import-layering checker: cyclic fixtures, upward imports, and the real tree."""

from pathlib import Path

import pytest

from repro.analysis.layers import (
    LAYERS,
    build_import_graph,
    check_layers,
    layer_of,
    render_graph,
)

REPO = Path(__file__).resolve().parent.parent

FIXTURE_LAYERS = (
    ("base", ("pkg",)),
    ("low", ("pkg.low",)),
    ("high", ("pkg.high",)),
)


def write_package(tmp_path, files):
    """Write ``{module: source}`` files for a fixture package."""
    for module, source in files.items():
        path = (tmp_path / Path(*module.split("."))).with_suffix(".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


class TestCycleDetection:
    def test_deliberate_cycle_is_reported(self, tmp_path):
        write_package(tmp_path, {
            "pkg.__init__": "",
            "pkg.alpha": "import pkg.beta\n",
            "pkg.beta": "import pkg.alpha\n",
        })
        graph = build_import_graph(tmp_path, "pkg")
        report = check_layers(graph, FIXTURE_LAYERS)
        assert report.cycles == [["pkg.alpha", "pkg.beta"]]
        assert not report.ok
        assert any("import cycle" in line for line in report.render_problems())

    def test_three_module_cycle(self, tmp_path):
        write_package(tmp_path, {
            "pkg.__init__": "",
            "pkg.a": "from pkg import b\n",
            "pkg.b": "from pkg import c\n",
            "pkg.c": "from pkg import a\n",
        })
        graph = build_import_graph(tmp_path, "pkg")
        report = check_layers(graph, FIXTURE_LAYERS)
        assert report.cycles == [["pkg.a", "pkg.b", "pkg.c"]]

    def test_deferred_back_edge_breaks_the_cycle(self, tmp_path):
        write_package(tmp_path, {
            "pkg.__init__": "",
            "pkg.alpha": "import pkg.beta\n",
            "pkg.beta": "def f():\n    import pkg.alpha\n",
        })
        graph = build_import_graph(tmp_path, "pkg")
        report = check_layers(graph, FIXTURE_LAYERS)
        assert report.cycles == []


class TestUpwardImports:
    def test_eager_upward_import_is_a_violation(self, tmp_path):
        write_package(tmp_path, {
            "pkg.__init__": "",
            "pkg.low.__init__": "import pkg.high\n",
            "pkg.high.__init__": "",
        })
        graph = build_import_graph(tmp_path, "pkg")
        report = check_layers(graph, FIXTURE_LAYERS)
        assert len(report.upward) == 1
        edge, src_layer, dst_layer = report.upward[0]
        assert (src_layer, dst_layer) == ("low", "high")
        assert "upward import" in report.render_problems()[0]

    def test_deferred_upward_import_is_a_violation(self, tmp_path):
        write_package(tmp_path, {
            "pkg.__init__": "",
            "pkg.low.__init__": "def f():\n    import pkg.high\n",
            "pkg.high.__init__": "",
        })
        graph = build_import_graph(tmp_path, "pkg")
        report = check_layers(graph, FIXTURE_LAYERS)
        assert not report.ok
        [(edge, src_layer, dst_layer)] = report.upward
        assert not edge.eager and (src_layer, dst_layer) == ("low", "high")
        assert "upward import" in report.render_problems()[0]
        assert "in a function" in report.render_problems()[0]

    def test_deferred_downward_import_passes(self, tmp_path):
        write_package(tmp_path, {
            "pkg.__init__": "",
            "pkg.low.__init__": "",
            "pkg.high.__init__": "def f():\n    import pkg.low\n",
        })
        graph = build_import_graph(tmp_path, "pkg")
        assert check_layers(graph, FIXTURE_LAYERS).ok

    def test_downward_import_passes(self, tmp_path):
        write_package(tmp_path, {
            "pkg.__init__": "",
            "pkg.low.__init__": "",
            "pkg.high.__init__": "import pkg.low\n",
        })
        graph = build_import_graph(tmp_path, "pkg")
        assert check_layers(graph, FIXTURE_LAYERS).ok


class TestResolution:
    def test_from_import_resolves_to_the_submodule(self, tmp_path):
        write_package(tmp_path, {
            "pkg.__init__": "",
            "pkg.low.__init__": "",
            "pkg.low.core": "",
            "pkg.high.__init__": "from pkg.low import core\n",
        })
        graph = build_import_graph(tmp_path, "pkg")
        assert any(e.src == "pkg.high" and e.dst == "pkg.low.core" for e in graph.edges)

    def test_relative_import_resolves(self, tmp_path):
        write_package(tmp_path, {
            "pkg.__init__": "",
            "pkg.low.__init__": "",
            "pkg.low.core": "",
            "pkg.low.extra": "from . import core\n",
        })
        graph = build_import_graph(tmp_path, "pkg")
        assert any(e.src == "pkg.low.extra" and e.dst == "pkg.low.core" for e in graph.edges)

    def test_layer_of_longest_prefix_wins(self):
        assert layer_of("repro.runtime.pipeline")[1] == "orchestration"
        assert layer_of("repro.runtime")[1] == "orchestration"
        assert layer_of("repro.api.config")[1] == "api"
        assert layer_of("repro.api.session")[1] == "api"
        assert layer_of("repro.errors")[1] == "foundation"

    def test_unknown_package_falls_to_foundation(self):
        # Self-enforcing default: an undeclared package lands in the lowest
        # layer, so its first upward import forces a layer-table update.
        assert layer_of("repro.shiny_new_thing")[1] == "foundation"


class TestRealTree:
    def test_repo_has_no_cycles_or_upward_imports(self):
        graph = build_import_graph(REPO / "src")
        report = check_layers(graph)
        assert report.ok, "\n".join(report.render_problems())

    def test_every_module_is_covered_by_the_layer_table(self):
        graph = build_import_graph(REPO / "src")
        for module in graph.modules:
            layer_of(module)  # raises if uncovered

    def test_render_graph_matches_committed_doc(self):
        graph = build_import_graph(REPO / "src")
        committed = (REPO / "docs" / "import_graph.md").read_text(encoding="utf-8")
        assert render_graph(graph) == committed, (
            "docs/import_graph.md is stale; run "
            "`python -m repro analyze --write-graph`"
        )

    def test_rendered_graph_has_layer_table_and_mermaid(self):
        graph = build_import_graph(REPO / "src")
        text = render_graph(graph)
        assert "```mermaid" in text
        for name, _ in LAYERS:
            assert f"| {name} |" in text
