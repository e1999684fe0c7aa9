"""The package surface: its exports resolve, no public definition is test-only,
run conditions leave through the .diag and the log, and exit codes match the README."""

import ast
import re
from pathlib import Path

import gtvdenoise
from gtvdenoise import cli, errors, metrics

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


def _sources() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "gtvdenoise").glob("*.py"))}


def test_every_public_definition_has_a_caller_outside_the_tests():
    sources = {path: tree for path, tree in _sources().items() if path.name != "__init__.py"}
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


def test_no_python_warnings_in_the_sources():
    # a run condition goes to the .diag and, from the CLI, to the log
    calls = [f"{path.name}:{node.lineno}"
             for path, tree in _sources().items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "warn" and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "warnings"]
    assert not calls, f"warnings.warn calls in src/: {calls}"


def test_exit_codes_match_the_readme_table():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    rows = {int(code): set(re.findall(r"`(\w+)`", rest))
            for code, rest in re.findall(r"^\| (\d+) \|(.*)$", table, flags=re.M)}
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.GtvDenoiseError)]
    own = {cli.EXIT_OK, cli.EXIT_BENCH_PARTIAL, cli.EXIT_IO}
    assert set(rows) == own | {cls.exit_code for cls in classes}
    for cls in classes:
        assert cls.__name__ in rows[cls.exit_code], f"{cls.__name__} not in row {cls.exit_code}"
