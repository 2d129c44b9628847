"""Every top-level function and class in gausslab is reached from the command line.

The walk starts from the modules the command line runs (``cli.py``,
``criteria.py`` and ``__main__.py``) and follows the names each reached
definition uses at run time: its own module's top-level names, names imported
from sibling modules, and ``module.name`` attributes of imported modules.
Annotations are not uses.  A class counts as reached with all of its methods.
Top-level assignments are followed when something reaches them but are not
themselves reported.
"""

import ast
from pathlib import Path

import gausslab

SRC = Path(gausslab.__file__).parent
ROOTS = ("cli", "criteria", "__main__")

# Definitions only the tests reach, each kept for the reason given.
TEST_REFERENCES = {
    ("polycore", "pack"): "the packed format that unpack inverts, written out once",
    ("pathlab", "reflect_through_point"): "the point symmetry compared with line reflection",
    ("posetlab", "des"): "the descent count that eulerian's inline count is tested against",
}


def _uses(node):
    """(name, attribute or None) for each run-time load in ``node``."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = n.args
            stack.extend(n.decorator_list + args.defaults + n.body)
            stack.extend(d for d in args.kw_defaults if d is not None)
            continue
        if isinstance(n, ast.AnnAssign):
            if n.value is not None:
                stack.append(n.value)
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id, None
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            yield n.value.id, n.attr
        stack.extend(ast.iter_child_nodes(n))


class _Module:
    def __init__(self, name):
        self.name = name
        self.tree = ast.parse((SRC / f"{name}.py").read_text())
        self.defs = {}  # top-level name -> defining node
        self.reported = set()  # the top-level functions and classes
        self.imports = {}  # local name -> (module, name), name None for a module
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs[stmt.name] = stmt
                self.reported.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.defs[target.id] = stmt
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    if stmt.module is None:
                        self.imports[local] = (alias.name, None)
                    else:
                        self.imports[local] = (stmt.module, alias.name)

    def resolve(self, name, attr):
        if name in self.defs:
            return self.name, name
        if name in self.imports:
            module, imported = self.imports[name]
            if imported is not None:
                return module, imported
            if attr is not None:
                return module, attr
        return None


def unreached_definitions():
    modules = {path.stem: _Module(path.stem) for path in SRC.glob("*.py")}
    seen = set()
    stack = [(modules[root], modules[root].tree) for root in ROOTS]
    while stack:
        module, node = stack.pop()
        for name, attr in _uses(node):
            target = module.resolve(name, attr)
            if target is None or target in seen or target[0] not in modules:
                continue
            owner = modules[target[0]]
            if target[1] in owner.defs:
                seen.add(target)
                stack.append((owner, owner.defs[target[1]]))
    return sorted(
        (module.name, name)
        for module in modules.values()
        for name in module.reported
        if (module.name, name) not in seen and module.name not in ROOTS
    )


def test_every_definition_is_reached_from_the_command_line():
    unreached = [d for d in unreached_definitions() if d not in TEST_REFERENCES]
    assert unreached == [], "reached by nothing in cli.py or criteria.py: " + ", ".join(
        f"{module}.{name}" for module, name in unreached
    )


def test_each_test_reference_is_needed():
    # An allowed name that the command line reaches, or that no longer
    # exists, should leave the list.
    unreached = set(unreached_definitions())
    assert [d for d in TEST_REFERENCES if d not in unreached] == []
