"""Every name a package module imports is used in it.  An import left
behind by a refactor is dead weight that no other check catches (the
package has no linter); `__init__.py` re-exports its imports and
`__future__` imports are directives, so both are exempt."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "liouwave"
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
