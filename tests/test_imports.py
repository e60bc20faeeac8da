"""Every module of the package and of its tests uses each name it imports,
and every private module-level name of the package is read somewhere in it.
Only ``model.py`` imports scipy, no package module imports inside a
function, and importing the CLI does not load ``scipy.stats``.

The package's ``__init__`` is the exception to the first rule: its imports
are the public API.
"""

import ast
import os
import subprocess
import sys
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


def _scipy_imports(source: str) -> list:
    """Import statements that name scipy or one of its subpackages."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules
                  if m == "scipy" or m.startswith("scipy.")]
    return found


def test_the_scan_finds_a_scipy_import():
    source = ("import scipy\nimport numpy, scipy.special as sp\nfrom scipy.stats import chi2\n"
              "from .scipy_like import x\nimport scipyx\n\ndef f():\n    from scipy import linalg\n")
    assert _scipy_imports(source) == ["line 1: scipy", "line 2: scipy.special",
                                      "line 3: scipy.stats", "line 8: scipy"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_only_model_imports_scipy(path):
    assert _scipy_imports(path.read_text()) == []


def _imports_in_functions(source: str) -> list:
    """Import statements inside a function body, with the function's name."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(f"line {node.lineno}: {fn.name}" for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(found)


def test_the_scan_finds_an_import_in_a_function():
    source = ("import os\n\ndef f():\n    import sys\n    return os, sys\n\n"
              "class C:\n    async def g(self):\n        from math import pi\n        return pi\n")
    assert _imports_in_functions(source) == ["line 4: f", "line 9: g"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_imports_in_function_bodies(path):
    assert _imports_in_functions(path.read_text()) == []


def test_importing_the_cli_leaves_scipy_stats_out():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = ("import sys, novelbayes.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == "[]\n"
