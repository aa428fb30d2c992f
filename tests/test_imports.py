"""Every module of the package, except the re-exporting __init__, uses each
name it imports, and every name a module defines at its top level is used by
another top-level statement of the package or exported in __all__; a
deletion that leaves an import or a definition behind fails here. No module
imports another module's private (underscore) name: what two modules share
is public."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "resolvekit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
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
    return sorted(name for name in imported if name not in used)


def test_the_guard_sees_an_unused_name():
    source = "from typing import Callable, Sequence\nimport os.path\n\ndef f(x: Sequence): ...\n"
    assert unused_imports(source) == ["Callable", "os"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def private_imports(source: str) -> list[str]:
    """The underscore names that source imports from a module of its own
    package, by a relative import."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_the_guard_sees_a_private_import():
    source = "from .graphs import Graph, _blocks\nfrom ._vendored import x\nfrom os import _exit\n"
    assert private_imports(source) == ["_blocks"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_private_imports(module):
    assert private_imports(module.read_text()) == []


def _defines(node: ast.stmt) -> list[str]:
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def stranded_names(sources: dict[str, str]) -> list[str]:
    """module.name for each top-level name of the modules in sources (module
    name -> source) that no other top-level statement reads, by name or as
    module.name, and that the "__init__" module's __all__ does not export."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    exported: set[str] = set()
    for node in trees["__init__"].body:
        if isinstance(node, ast.Assign) and "__all__" in _defines(node):
            exported = {element.value for element in node.value.elts}
    reads: list[tuple[str, ast.stmt, set[str]]] = []
    for module, tree in trees.items():
        for node in tree.body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in trees:
                    names.add(sub.attr)
            reads.append((module, node, names))
    stranded = []
    for module, node, _ in reads:
        for name in _defines(node):
            if name.startswith("__") or name in exported:
                continue
            if not any(name in names for _, other, names in reads if other is not node):
                stranded.append(f"{module}.{name}")
    return sorted(stranded)


def test_the_guard_sees_a_stranded_name():
    sources = {
        "__init__": "from .a import shown\n__all__ = ['shown']\n",
        "a": "LIMIT = 3\nSPARE = 4\n\ndef shown(): return LIMIT\n\ndef loop(n): return loop(n - 1)\n",
        "b": "from . import a\n\ndef f(): return a.SPARE\n\ndef g(): return f()\n",
    }
    # loop reads only itself, and g is read by nothing
    assert stranded_names(sources) == ["a.loop", "b.g"]


def test_no_stranded_names():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert stranded_names(sources) == []
