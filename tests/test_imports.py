"""Every module of the package and of its tests uses each name it imports,
and every private module-level name of the package is read somewhere in it.

The package's ``__init__`` is the exception to the first rule: its imports
are the public API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "novelbayes").glob("*.py"))
FILES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
               if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(pi, os.sep)\n"
    assert _unused_imports(source) == ["line 2: system", "line 3: tau"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _private_definitions(tree: ast.Module) -> dict:
    """Private functions, classes and constants bound at module level."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def _unused_private_definitions(sources: dict) -> list:
    """Module-level private names that no module among ``sources`` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module} line {line}: {name}"
                  for module, tree in trees.items()
                  for name, line in _private_definitions(tree).items() if name not in read)


def test_the_scan_finds_an_unused_private_definition():
    sources = {
        "a.py": ("_USED = 1\n_UNUSED: int = 2\n\ndef _helper():\n    return _USED\n\n"
                 "class _Lost:\n    pass\n\ndef _orphan():\n    pass\n"),
        "b.py": "from a import _helper\nimport a\n\nprint(_helper(), a._orphan)\n",
    }
    assert _unused_private_definitions(sources) == ["a.py line 2: _UNUSED", "a.py line 7: _Lost"]


def test_no_unused_private_definitions():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert _unused_private_definitions(sources) == []
