"""Every name the package defines is used by the package or the benchmark,
and so is every option it defines: code that only the tests call belongs
in `tests/`. Neither the package nor the benchmark takes anything from
`tests/`."""

import ast

import pytest
from conftest import ROOT

PACKAGE = ROOT / "src" / "hypermodes"
TREES = (PACKAGE, ROOT / "bench")
# defined in the package, referenced only from tests, and kept there
ALLOWED = {
    # the acceptance suite (acceptance 01) reconstructs the input pair
    # from a decomposition's block diagonals
    "ModeDecomposition.block_diagonals",
}
# defaulted options that no call outside the tests sets, each with the
# reason it stays
ALLOWED_OPTIONS = {
    "IVPConfig.forcing": "the paper's source term f; the spatial-order "
                         "tests (TestSpatialOrder) integrate a forced problem",
}
# dataclasses filled by setattr from the CLI keys, not by a call
SET_BY_ATTRIBUTE = {"RunConfig"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    names = [d.func if isinstance(d, ast.Call) else d
             for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in names)


def _defined(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each top-level function, class, method,
    dataclass field and module constant of a module; dunder names are
    called implicitly and left out. A field, like a method, is read as an
    attribute: one that nothing reads holds a value nothing uses."""
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
            if _is_dataclass(node):
                found += [(f"{node.name}.{item.target.id}", item.target.id)
                          for item in node.body
                          if isinstance(item, ast.AnnAssign)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found += [(n.id, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [(qual, name) for qual, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def _referenced(tree: ast.AST) -> set[str]:
    """Every name a module reads as code: a `Name` it loads, an `Attribute`
    (kept as ".name") or an import alias. An assignment to a name is no use
    of it, nor is a string constant: a name in `__all__`, or one the
    benchmark's tracer would wrap, runs only if code calls it."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add("." + node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rpartition(".")[2])
    return refs


def _unreferenced(source: str, refs: set[str]) -> list[str]:
    """The names of `source` that `refs` never reads: a method only counts
    as read as an attribute (`x.h`), not where a bare name of the same
    spelling (a local `h`) is loaded."""
    return [qual for qual, name in _defined(ast.parse(source))
            if qual not in ALLOWED and "." + name not in refs
            and ("." in qual or name not in refs)]


def test_guard_flags_unreferenced_names():
    source = ("X = 1\n__all__ = []\ndef f():\n    return g()\n"
              "def g():\n    pass\nclass C:\n    def __init__(self):\n"
              "        pass\n    def m(self):\n        pass\n"
              "    def h(self):\n        pass\n"
              "    def w(self):\n        pass\n")
    refs = _referenced(ast.parse("import mod.C\nprint('X', 'g')\n"
                                 "h = 1\nprint(h, c.w)\n"))
    assert _unreferenced(source, refs | _referenced(ast.parse(source))) \
        == ["X", "f", "C.m", "C.h"]


def test_guard_flags_unread_dataclass_fields():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass D:\n    x: int\n"
              "    y: float = 0.0\n    z: int = 1\n"
              "class P:\n    w: int\n")
    refs = _referenced(ast.parse("d = D(1, y=2.0)\nprint(d.x, z, P)\n"))
    assert _unreferenced(source, refs) == ["D.y", "D.z"]


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


# --- options ---------------------------------------------------------------


def _has_default(field: ast.AnnAssign) -> bool:
    """Whether a dataclass field has a default: a value that is not a
    `field(...)` call, or one that passes default or default_factory."""
    value = field.value
    if value is None:
        return False
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id.endswith("field"):
        return any(k.arg in ("default", "default_factory")
                   for k in value.keywords)
    return True


def _parameters(func: ast.FunctionDef, skip: int):
    """(option, position or None) of each defaulted parameter; `skip`
    leading parameters (self) are not passed by a call."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _options(tree: ast.Module) -> list[tuple[str, str, str, int | None]]:
    """(qualified option, the name a call uses, option, position or None
    if keyword-only) of each defaulted parameter of a top-level function
    or method, and each defaulted field of a dataclass, of a module."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found += [(f"{node.name}.{arg}", node.name, arg, pos)
                      for arg, pos in _parameters(node, 0)]
        elif isinstance(node, ast.ClassDef) \
                and node.name not in SET_BY_ATTRIBUTE:
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign)]
            if _is_dataclass(node):
                found += [(f"{node.name}.{f.target.id}", node.name,
                           f.target.id, i) for i, f in enumerate(fields)
                          if _has_default(f)]
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    called = (node.name if item.name == "__init__"
                              else item.name)
                    found += [(f"{node.name}.{item.name}.{arg}", called, arg,
                               pos) for arg, pos
                              in _parameters(item, 0 if static else 1)]
    return found


def _calls(tree: ast.AST) -> dict[str, list[tuple[float, set]]]:
    """Per callee name (a bare name or an attribute), the calls a module
    makes: (positional arguments passed, keywords passed). A starred
    argument passes every position, a ** argument every keyword ("**")."""
    calls: dict[str, list] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        positions = (float("inf") if any(isinstance(a, ast.Starred)
                                         for a in node.args)
                     else len(node.args))
        keywords = {"**" if k.arg is None else k.arg for k in node.keywords}
        calls.setdefault(name, []).append((positions, keywords))
    return calls


def _unset(source: str, calls) -> list[str]:
    return [qual for qual, called, arg, pos in _options(ast.parse(source))
            if qual not in ALLOWED_OPTIONS
            and not any(arg in kw or "**" in kw
                        or (pos is not None and pos < npos)
                        for npos, kw in calls.get(called, []))]


def test_guard_flags_unset_options():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=1, *, c=2):\n    pass\n"
              "@dataclass\nclass D:\n    x: int\n    y: int = 0\n"
              "    z: list = field(default_factory=list)\n"
              "    w: int = field(repr=False)\n"
              "class C:\n    def __init__(self, p=0):\n        pass\n"
              "    def m(self, q=0):\n        pass\n")
    calls = _calls(ast.parse("f(0, 1)\nD(x=1, z=[])\nC()\nobj.m(q=1)\n"))
    assert _unset(source, calls) == ["f.c", "D.y", "C.__init__.p"]
    calls = _calls(ast.parse("f(0, c=3)\nD(1, 2, **k)\nC(*a)\n"))
    assert _unset(source, calls) == ["f.b", "C.m.q"]


@pytest.fixture(scope="module")
def calls() -> dict:
    merged: dict[str, list] = {}
    for path in _using_files():
        for name, found in _calls(ast.parse(path.read_text())).items():
            merged.setdefault(name, []).extend(found)
    return merged


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_options_set_outside_tests(path, calls):
    assert _unset(path.read_text(), calls) == []


# --- private names ---------------------------------------------------------


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(source: str) -> list[str]:
    """Each `_`-prefixed name that a module imports from another module, or
    reads as an attribute of a name it imported: a private name is its
    module's own, so one that another module needs should be public."""
    tree = ast.parse(source)
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.partition(".")[0])
                if isinstance(node, ast.ImportFrom) and _is_private(alias.name):
                    found.append(alias.name)
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in imported and _is_private(node.attr)]
    return found


def test_guard_flags_private_reads():
    source = ("from __future__ import annotations\n"
              "from . import linalg\nimport numpy as np\n"
              "from .solver import _helper, run\n"
              "x = linalg._kernel(np.pi, run.__name__)\n"
              "y = self._own + obj._field\n")
    assert _private_reads(source) == ["_helper", "linalg._kernel"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_reads_no_private_name_of_another_module(path):
    assert _private_reads(path.read_text()) == []


# --- no dependence on the tests ---------------------------------------------

TEST_MODULES = {"tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}


def _test_dependencies(source: str) -> list[str]:
    """Each module of `tests/` that a module imports, and each string of it
    (docstrings and other bare strings aside) with a path part that names
    `tests` or one of its modules, as a load by file path would spell it."""
    tree = ast.parse(source)
    bare = {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in bare:
            names = node.value.split("/")
        else:
            continue
        found += [name for name in names
                  if name.partition(".")[0] in TEST_MODULES]
    return found


def test_guard_flags_test_dependencies():
    source = ('"""Reads tests/lemmas.py."""\n'
              "import numpy, lemmas\nfrom tests.conftest import ROOT\n"
              "from . import solver\nfrom test_cli import run\n"
              "path = ROOT / 'tests' / 'lemmas.py'\n"
              "spec = load('conftest', 'bench/test_bench.py')\n"
              "'tests/test_cli.py'\n")
    assert sorted(_test_dependencies(source)) == [
        "conftest", "lemmas", "lemmas.py", "test_cli", "tests",
        "tests.conftest"]


@pytest.mark.parametrize("path", sorted(path for tree in TREES
                                        for path in tree.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_file_depends_on_the_tests(path):
    assert _test_dependencies(path.read_text()) == []
