"""Every name the package defines is used by the package, the benchmark or
the scripts: code that only the tests call belongs in `tests/`."""

import ast

import pytest
from conftest import ROOT

PACKAGE = ROOT / "src" / "hypermodes"
TREES = (PACKAGE, ROOT / "bench", ROOT / "scripts")
# defined in the package, referenced only from tests, and kept there
ALLOWED = {
    # the acceptance suite (acceptance 01) reconstructs the input pair
    # from a decomposition's block diagonals
    "ModeDecomposition.block_diagonals",
}


def _defined(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each top-level function, class, method
    and module constant of a module; dunder names are called implicitly
    and left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            found.append((node.name, node.name))
            found += [(f"{node.name}.{item.name}", item.name)
                      for item in node.body
                      if isinstance(item, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found += [(n.id, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [(qual, name) for qual, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def _referenced(tree: ast.AST) -> set[str]:
    """Every name a module reads as code: a `Name` it loads, an `Attribute`
    or an import alias. An assignment to a name is no use of it, nor is a
    string constant: a name in `__all__`, or one the benchmark's tracer
    would wrap, runs only if code calls it."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
    return refs


def _unreferenced(source: str, refs: set[str]) -> list[str]:
    return [qual for qual, name in _defined(ast.parse(source))
            if name not in refs and qual not in ALLOWED]


def test_guard_flags_unreferenced_names():
    source = ("X = 1\n__all__ = []\ndef f():\n    return g()\n"
              "def g():\n    pass\nclass C:\n    def __init__(self):\n"
              "        pass\n    def m(self):\n        pass\n")
    refs = _referenced(ast.parse("import mod.C\nprint('X', 'g')\n"))
    assert _unreferenced(source, refs | _referenced(ast.parse(source))) \
        == ["X", "f", "C.m"]


def _using_files():
    """The files whose references count as uses: every module of TREES but
    the package's `__init__.py`, whose re-exports and `__all__` call
    nothing."""
    return [path for tree in TREES for path in tree.rglob("*.py")
            if path != PACKAGE / "__init__.py"]


@pytest.fixture(scope="module")
def references() -> set[str]:
    return set().union(*(_referenced(ast.parse(path.read_text()))
                         for path in _using_files()))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_names_used_outside_tests(path, references):
    assert _unreferenced(path.read_text(), references) == []
