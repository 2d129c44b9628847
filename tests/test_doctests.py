"""The examples in gausslab's docstrings are run and must pass."""

import doctest
import importlib
import pkgutil

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
