"""The package surface: its exports resolve, and no public definition is test-only."""

import ast
from pathlib import Path

import gtvdenoise
from gtvdenoise import metrics

ROOT = Path(__file__).resolve().parents[1]
# the console-script entry point, called from outside the sources
ENTRY_POINTS = {"main"}


def test_star_import():
    namespace = {}
    exec("from gtvdenoise import *", namespace)
    assert set(gtvdenoise.__all__) <= namespace.keys()


def test_every_export_resolves():
    for module in (gtvdenoise, metrics):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def _uses(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names a module reads (loads and attribute accesses), outside the node skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    sources = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "gtvdenoise").glob("*.py"))
               if path.name != "__init__.py"}
    benchmark = set()
    for path in (ROOT / "benchmark").glob("*.py"):
        if not path.name.startswith("test_"):
            benchmark |= _uses(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = []
    for path, tree in sources.items():
        others = set().union(*(_uses(t) for p, t in sources.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in ENTRY_POINTS:
                continue
            if name not in others | benchmark | _uses(tree, skip=node):
                uncalled.append(f"{path.name}:{name}")
    assert not uncalled, f"public definitions with no caller in src/ or benchmark/: {uncalled}"
