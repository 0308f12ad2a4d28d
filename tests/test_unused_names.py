"""Every name the package defines is used.

A function, class, method or module constant in ``src/monocurve`` must be a
dunder, be a key of the export table ``monocurve._EXPORTS``, or be referenced somewhere
in the package outside its own definition. A method that overrides one of a
base class (``argparse.ArgumentParser.error``) is called by that class. Code
that only tests call belongs in ``tests/oracles.py``.
"""

import ast
import importlib
from pathlib import Path

import monocurve

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(name, node, class name or None) of the module-level functions, classes
    and constants and of the methods."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node, None
            if isinstance(node, ast.ClassDef):
                yield from ((item.name, item, node.name) for item in node.body
                            if isinstance(item, DEFS))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node, None) for t in targets if isinstance(t, ast.Name))


def _references(tree):
    """(name, line) of every name read, attribute taken or name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def unused_names(package=monocurve):
    """``module:line name`` of each definition in ``package`` that nothing uses."""
    paths = sorted(Path(package.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in paths}
    exported = set(package._EXPORTS)
    refs = [(module, name, line) for module, tree in trees.items()
            for name, line in _references(tree)]
    unused = []
    for module, tree in trees.items():
        for name, node, owner in _definitions(tree):
            if name.startswith("__") and name.endswith("__") or name in exported:
                continue
            if owner is not None:
                stem = module.removesuffix(".py")
                cls = getattr(importlib.import_module(f"{package.__name__}.{stem}"), owner)
                if any(hasattr(base, name) for base in cls.__mro__[1:]):
                    continue
            if not any(n == name and not (m == module and node.lineno <= line <= node.end_lineno)
                       for m, n, line in refs):
                unused.append(f"{module}:{node.lineno} {name}")
    return unused


def test_every_package_name_is_used():
    assert unused_names() == []


def test_guard_finds_unused_names(tmp_path, monkeypatch):
    pkg = tmp_path / "guarded"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "import importlib\n\n"
        "_EXPORTS = {'Table': 'core'}\n\n\n"
        "def __getattr__(name):\n"
        "    return getattr(importlib.import_module(f'{__name__}.{_EXPORTS[name]}'), name)\n")
    (pkg / "core.py").write_text(
        "LIMIT = 3\n_SPARE = 4\n\n\n"
        "class Table(dict):\n"
        "    def size(self):\n        return LIMIT\n\n"
        "    def spare(self):\n        return self.spare()\n\n"
        "    def copy(self):\n        return Table(self)\n\n\n"
        "def _helper():\n    return Table().size()\n\n\n"
        "def _unused():\n    return _unused()\n\n\n"
        "assert _helper() == 3\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    assert unused_names(importlib.import_module("guarded")) == [
        "core.py:2 _SPARE", "core.py:9 spare", "core.py:20 _unused"]
