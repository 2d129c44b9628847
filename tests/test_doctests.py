"""The examples in gausslab's docstrings and README are run and must pass."""

import doctest
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import gausslab
from gausslab import cli

README = Path(__file__).resolve().parents[1] / "README.md"
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
    readme = README.read_text()
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.DOTALL)
    assert tour, "README has no Library quick tour python block"
    exec(compile(tour.group(1), "README.md quick tour", "exec"), {})


def test_readme_cli_examples_run(capsys):
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.DOTALL)
    assert block, "README has no CLI sh block"
    lines = [line for line in block.group(1).splitlines() if line.startswith("gausslab ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.main(argv) == (1 if "# exit 1" in line else 0), line
    capsys.readouterr()
