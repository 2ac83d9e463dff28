"""Source hygiene: no unused imports, no private names imported across modules."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ergocubes").glob("*.py"))


def _annotation_names(tree: ast.AST):
    """Names used inside string annotations such as `-> "FiniteMPS"`."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
            annotations += [a.annotation for a in args if a.annotation is not None]
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                yield from (n.id for n in ast.walk(ast.parse(part.value, mode="eval")) if isinstance(n, ast.Name))


def _imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias, (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias, alias.asname or alias.name


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "finite.py", "joinings.py", "averaging.py", "cli.py"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_annotation_names(tree))
    unused = [f"{path.name}:{node.lineno} {name}" for node, _, name in _imports(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    tree = ast.parse(path.read_text())
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for node, alias, _ in _imports(tree)
        if isinstance(node, ast.ImportFrom) and alias.name.startswith("_")
    ]
    assert not private, "private names imported from another module: " + ", ".join(private)


def test_the_scan_sees_an_unused_and_a_private_import():
    tree = ast.parse("from .finite import _grid, S_GEN\nimport math\nx: 'S_GEN' = 1\n")
    names = {name for _, _, name in _imports(tree)}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_annotation_names(tree))
    assert names - used == {"_grid", "math"}
