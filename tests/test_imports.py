"""Source hygiene: every name a library module imports is used in it, and
every private module-level function or class is used somewhere in the
library."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "asymlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _referenced(node: ast.AST) -> set[str]:
    """Every name a subtree reads, as a bare name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes named ``_x`` (not dunders) that no
    top-level statement of any of ``sources`` other than their own
    definition refers to."""
    statements = [
        (module, node) for module, source in sources.items() for node in ast.parse(source).body
    ]
    found = []
    for module, node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if not any(other is not node and name in _referenced(other) for _, other in statements):
            found.append(f"{module}: {name} (line {node.lineno})")
    return found


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom .dist import expectation, variance\n\nvariance(math.pi)\n"
    assert unused_imports(source) == ["expectation (line 2)"]


def test_the_check_sees_an_unreferenced_private_definition():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n",
        "b.py": "from .a import _used\n\nclass _Kept:\n    pass\n\nx = [_Kept]\n",
    }
    assert unreferenced_private_definitions(sources) == ["a.py: _recursive (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_definition_has_a_caller():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []
