"""Docs-site integrity: link check and doctests."""

import doctest
import importlib
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

from check_docs_links import check_paths, default_paths, github_slug, heading_anchors  # noqa: E402

DOC_PAGES = (
    "architecture.md",
    "store.md",
    "serving.md",
    "pipeline.md",
    "benchmarks.md",
    "sketched_optimizers.md",
    "analysis.md",
)

#: Modules whose docstrings carry runnable examples (the CI doctest set).
DOCTEST_MODULES = (
    "repro.data.stream",
    "repro.serving.stats",
    "repro.runtime.executor",
    "repro.store.base",
)


class TestDocsTree:
    def test_all_pages_exist(self):
        for page in DOC_PAGES:
            assert (REPO / "docs" / page).is_file(), f"docs/{page} missing"

    def test_readme_links_every_docs_page(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for page in DOC_PAGES:
            assert f"docs/{page}" in readme, f"README does not link docs/{page}"

    def test_no_broken_links(self):
        problems = check_paths(default_paths(REPO))
        assert not problems, "broken markdown links:\n" + "\n".join(problems)


class TestLinkChecker:
    def test_github_slug(self):
        assert github_slug("Copy-on-write snapshots") == "copy-on-write-snapshots"
        assert github_slug("Where `data.next_batch_ms` goes") == "where-datanext_batch_ms-goes"

    def test_heading_anchors_skip_code_fences(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("# Real\n```\n# not a heading\n```\n", encoding="utf-8")
        assert heading_anchors(page) == {"real"}

    def test_detects_missing_file_and_anchor(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("# T\n[a](gone.md)\n[b](#nope)\n", encoding="utf-8")
        problems = check_paths([page])
        assert len(problems) == 2


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} has no doctest examples"
    assert results.failed == 0
