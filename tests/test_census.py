"""The reachability census collector (``scripts/census.py``) over a toy package."""

import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

from census import Function, branch_listing, functions, keep_reason, render, run_legs  # noqa: E402

TOY = '''
import functools
import subprocess
import sys

from repro.analysis.sanitizer import single_writer


def decorate(function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        return function(*args, **kwargs)

    return wrapper


@decorate
def decorated():
    return 1


class Store:
    @single_writer
    def write(self):
        return 2

    @property
    def size(self):
        return 3


def outer():
    def inner():
        return 4

    return inner()


def in_child():
    return 5


def never():
    return 6


def main():
    decorated()
    Store().write()
    Store().size
    outer()
    subprocess.run([sys.executable, "-c", "import toy; toy.in_child()"], check=True)
'''


def test_every_kind_of_function_counts_as_reached(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text(textwrap.dedent(TOY), encoding="utf-8")
    legs = {"main": [sys.executable, "-c", "import toy; toy.main()"]}
    reached = run_legs(legs, tmp_path, tmp_path, [tmp_path, REPO / "src"])[0]["main"]
    status = {
        function.qualname: (function.path, function.first_line) in reached
        for function in functions(package)
    }
    assert status == {
        "decorate": True,
        "decorate.<locals>.wrapper": True,
        "decorated": True,
        "Store.write": True,
        "Store.size": True,
        "outer": True,
        "outer.<locals>.inner": True,
        "in_child": True,
        "never": False,
        "main": True,
    }


BRANCHY = '''
def pick(flag):
    if flag:
        value = 1
    else:
        value = 2
    try:
        value = int(value)
    except ValueError:
        value = 0
    if value > 5:
        raise RuntimeError(
            "too big"
        )
    for item in range(value - 1):
        value += item
    return [item for item in range(value)]


class Box:
    def never(self):
        return 3
'''


def test_the_branch_listing_names_each_untaken_line_but_error_paths(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text(textwrap.dedent(BRANCHY), encoding="utf-8")
    legs = {"main": [sys.executable, "-c", "import toy; toy.pick(True)"]}
    reached, ran = run_legs(legs, tmp_path, tmp_path, [tmp_path, REPO / "src"])
    listing = branch_listing(package, reached["main"], ran).splitlines()
    # Line 6 (``value = 2``) and line 16 (the body of a loop over nothing)
    # are untaken; the except clause (9-10) and the raise (12-14) are left
    # out, and ``Box.never`` is unreached, which the function census reports.
    assert listing[:-1] == ["toy/__init__.py:pick: 6, 16"]
    assert listing[-1].startswith("branch census: 2 of ")


def test_keep_reason_matches_module_class_and_function():
    method = Function("repro/nn/tensor.py", "Tensor.sum", 10, 4)
    assert keep_reason(method, {"repro/nn/tensor.py": "item-6"}) == "item-6"
    assert keep_reason(method, {"repro/nn/tensor.py:Tensor": "item-6"}) == "item-6"
    assert keep_reason(method, {"repro/nn/tensor.py:Tensor.sum": "item-6"}) == "item-6"
    assert keep_reason(method, {"repro/nn/tensor.py:Tensor.mean": "item-6"}) is None
    assert keep_reason(method, {"repro/nn/tensor.py:Ten": "item-6"}) is None


def toy_census(tmp_path, keep):
    """Render a census of a two-function package where only ``used`` ran."""
    package = tmp_path / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("def used():\n    pass\n\n\ndef unused():\n    pass\n")
    return render(package, {"leg": {("toy/__init__.py", 1)}}, keep, runners={})


def test_an_unreached_function_without_a_reason_is_a_finding(tmp_path):
    text = toy_census(tmp_path, keep={})
    assert "| `toy/__init__.py:unused` | 2 | **finding** |" in text
    assert "without a keep reason (findings): 1" in text
    assert "toy/__init__.py:used`" not in text
    kept = toy_census(tmp_path / "again", keep={"toy/__init__.py:unused": "oracle"})
    assert "| `toy/__init__.py:unused` | 2 | oracle |" in kept
    assert "without a keep reason (findings): 0" in kept


@pytest.mark.parametrize("keep, message", [
    ({"toy/__init__.py:used": "oracle"}, "match no unreached function"),
    ({"toy/__init__.py:unused": "handy"}, "not in KEEP_REASONS"),
])
def test_a_stale_or_unknown_keep_entry_stops_the_census(tmp_path, keep, message):
    with pytest.raises(SystemExit, match=message):
        toy_census(tmp_path, keep)
