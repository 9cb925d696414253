"""Every name a package module imports is used in it, and every top-level
function and class a package module defines is used somewhere.  An import
or a helper left behind by a refactor is dead weight that no other check
catches (the package has no linter); `__init__.py` re-exports its imports
and `__future__` imports are directives, so both are exempt from the
first check."""

import ast
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liouwave"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """The names the module's imports bind, mapped to their line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_modules_found():
    assert {"cli.py", "picard.py", "propagator.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = sorted((line, name) for name, line in _imported_names(tree).items()
                    if name not in _used_names(tree))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.zeros(c)\n")
    names = _imported_names(tree)
    assert sorted(n for n in names if n not in _used_names(tree)) == ["e", "os"]


def _references(node):
    """How often each name is read (as a name or an attribute) or imported
    inside `node`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                   else n.name for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def _dead_definitions(trees, named_elsewhere=""):
    """(module, name) of each top-level function and class of a module of
    `trees` ({module name: tree}) other than `__init__` that no module
    references outside its own definition and `named_elsewhere` does not
    name.  Any attribute of the same name counts as a reference, so the
    check can miss a dead definition; it does not flag a used one."""
    total = sum((_references(t) for t in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            used = total[node.name] > _references(node)[node.name]
            if not used and not re.search(rf"\b{re.escape(node.name)}\b", named_elsewhere):
                dead.append((module, node.name))
    return dead


def test_every_definition_is_used():
    # a name the benchmark binds (a span target, say) is kept for it
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in PACKAGE.glob("*.py")}
    perfbench = "\n".join(p.read_text(encoding="utf-8")
                          for p in sorted((ROOT / "perfbench").rglob("*.py")))
    assert not _dead_definitions(trees, perfbench)


def test_an_orphan_definition_is_caught():
    sources = {
        "__init__": "from .a import exported\n",
        "a": ("def exported():\n    return helper()\n\n"
              "def helper():\n    return 1\n\n"
              "def orphan():\n    return helper()\n\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
              "class Probe:\n    pass\n\n"
              "def _mutual():\n    return _Other\n"),
        "b": "class _Other:\n    def run(self):\n        return _mutual()\n",
    }
    trees = {name: ast.parse(src) for name, src in sources.items()}
    assert _dead_definitions(trees) == [("a", "orphan"), ("a", "recursive"), ("a", "Probe")]
    assert _dead_definitions(trees, "run(Probe)") == [("a", "orphan"), ("a", "recursive")]
