"""Every top-level function and class in gausslab, and every method, is reached
from the command line.

The walk starts from the modules the command line runs (``cli.py``,
``criteria.py`` and ``__main__.py``) and follows the names each reached
definition uses at run time: its own module's top-level names, names imported
from sibling modules, and ``module.name`` attributes of imported modules.
Annotations are not uses.  A reached class brings its bases, decorators and
class-level statements, but not its methods: a method is reached only when
reached code loads its name as an attribute (``x.name`` on any object), and
dunder methods count as reached with their class (``test_cli`` runs the command
lines to find ``IntPoly`` methods, dunders included, that none of them calls).  Top-level assignments are
followed when something reaches them, and one that nothing reached reads is
reported too, unless it is a dunder or a type alias that annotations use.
"""

import ast
from pathlib import Path

import gausslab

SRC = Path(gausslab.__file__).parent
ROOTS = ("cli", "criteria", "__main__")

# Definitions only the tests reach, each kept for the reason given.
TEST_REFERENCES = {
    ("polycore", "pack"): "the packed format that unpack inverts, written out once",
    ("posetlab", "des"): "the descent count that eulerian's recurrence is tested against",
    ("polycore", "gamma_expand"): "the inverse the gamma re-expansion tests use",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _uses(node):
    """(name or None, attribute or None) for each run-time load in ``node``.

    A plain name gives (name, None), ``name.attr`` gives (name, attr) and any
    other attribute load gives (None, attr).
    """
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, FUNCTIONS):
            args = n.args
            stack.extend(n.decorator_list + args.defaults + n.body)
            stack.extend(d for d in args.kw_defaults if d is not None)
            continue
        if isinstance(n, ast.ClassDef):
            # The methods are walked on their own, once reached.
            stack.extend(n.decorator_list + n.bases + [k.value for k in n.keywords])
            stack.extend(stmt for stmt in n.body if not isinstance(stmt, FUNCTIONS))
            continue
        if isinstance(n, ast.AnnAssign):
            if n.value is not None:
                stack.append(n.value)
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id, None
        elif isinstance(n, ast.Attribute):
            yield (n.value.id if isinstance(n.value, ast.Name) else None), n.attr
        stack.extend(ast.iter_child_nodes(n))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


class _Module:
    def __init__(self, name):
        self.name = name
        self.tree = ast.parse((SRC / f"{name}.py").read_text())
        self.defs = {}  # top-level name -> defining node
        self.reported = set()  # every top-level definition but dunders, and "Class.method"
        self.assigned = set()  # the reported names that a top-level assignment binds
        self.methods = {}  # class name -> {method name: node}
        self.imports = {}  # local name -> (module, name), name None for a module
        for stmt in self.tree.body:
            if isinstance(stmt, FUNCTIONS + (ast.ClassDef,)):
                self.defs[stmt.name] = stmt
                self.reported.add(stmt.name)
            if isinstance(stmt, ast.ClassDef):
                methods = {m.name: m for m in stmt.body if isinstance(m, FUNCTIONS)}
                self.methods[stmt.name] = methods
                self.reported.update(f"{stmt.name}.{m}" for m in methods if not _is_dunder(m))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.defs[target.id] = stmt
                        if not _is_dunder(target.id):
                            self.reported.add(target.id)
                            self.assigned.add(target.id)
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    if stmt.module is None:
                        self.imports[local] = (alias.name, None)
                    else:
                        self.imports[local] = (stmt.module, alias.name)

    def annotated(self):
        """The (module, name) of each definition that an annotation here names."""
        annotations = []
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.arg, ast.AnnAssign)):
                annotations.append(node.annotation)
            elif isinstance(node, FUNCTIONS):
                annotations.append(node.returns)
        return {
            self.resolve(name, attr)
            for annotation in annotations
            if annotation is not None
            for name, attr in _uses(annotation)
        }

    def resolve(self, name, attr):
        if name is None:
            return None
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
    attributes = set()  # every attribute name that reached code loads
    classes = []  # (module, class name) of each reached class
    stack = [(modules[root], modules[root].tree) for root in ROOTS]

    def reach(module, name, node):
        if (module.name, name) not in seen:
            seen.add((module.name, name))
            stack.append((module, node))

    while stack:
        module, node = stack.pop()
        for name, attr in _uses(node):
            if attr is not None and attr not in attributes:
                attributes.add(attr)
                for owner, cls in classes:
                    if attr in owner.methods[cls]:
                        reach(owner, f"{cls}.{attr}", owner.methods[cls][attr])
            target = module.resolve(name, attr)
            if target is None or target in seen or target[0] not in modules:
                continue
            owner = modules[target[0]]
            if target[1] not in owner.defs:
                continue
            reach(owner, target[1], owner.defs[target[1]])
            if target[1] in owner.methods:
                classes.append((owner, target[1]))
                for method, node in owner.methods[target[1]].items():
                    if _is_dunder(method) or method in attributes:
                        reach(owner, f"{target[1]}.{method}", node)
    annotated = set().union(*(module.annotated() for module in modules.values()))
    return sorted(
        (module.name, name)
        for module in modules.values()
        for name in module.reported
        if (module.name, name) not in seen
        and not (name in module.assigned and (module.name, name) in annotated)
        and module.name not in ROOTS
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
