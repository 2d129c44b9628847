"""The examples in gausslab's docstrings and README are run and must pass."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gausslab

MODULES = sorted(m.name for m in pkgutil.iter_modules(gausslab.__path__, "gausslab."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(name)
    failed, _ = doctest.testmod(module, verbose=False, report=True)
    assert failed == 0, f"{failed} docstring example(s) failed in {name}"


def test_the_examples_are_found():
    attempted = sum(
        doctest.testmod(importlib.import_module(name), verbose=False).attempted
        for name in MODULES
    )
    assert attempted >= 10


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.DOTALL)
    assert tour, "README has no Library quick tour python block"
    exec(compile(tour.group(1), "README.md quick tour", "exec"), {})
