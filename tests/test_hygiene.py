"""Source hygiene: no unused imports, no private names imported across modules,
and every name the benchmark harness reads from ergocubes still exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ergocubes").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))


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


_MISSING = object()


def _resolve(module: str, name=None):
    """`module`, or its attribute or submodule `name`; `_MISSING` if absent."""
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return _MISSING
    if name is None or hasattr(obj, name):
        return obj if name is None else getattr(obj, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return _MISSING


def _harness_problems(source: str):
    """The references of a harness file into ergocubes that do not resolve:
    the modules and names it imports, every `module.name` it reads, and the
    (owner, attr) entries of a `FUNCTIONS` table, where a class owner must
    define attr itself (the tracer wraps `owner.__dict__[attr]`).  Found
    with `ast`, without running the file."""
    tree = ast.parse(source)
    bound, problems = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports = [(alias, alias.name, None) for alias in node.names if alias.name.split(".")[0] == "ergocubes"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ergocubes":
            imports = [(alias, node.module, alias.name) for alias in node.names]
        else:
            continue
        for alias, module, name in imports:
            obj = bound[alias.asname or alias.name] = _resolve(module, name)
            if obj is _MISSING:
                problems.append(f"line {node.lineno}: {module}" + (f".{name}" if name else ""))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            owner = bound[node.value.id]
            if owner is not _MISSING and not hasattr(owner, node.attr):
                problems.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["FUNCTIONS"]:
            for entry in node.value.elts:
                owner, attr = entry.elts[0], entry.elts[1].value
                if isinstance(owner, ast.Constant):  # a module, by its bound name
                    found = hasattr(bound.get(owner.value), attr)
                else:  # module.Class
                    found = attr in getattr(getattr(bound.get(owner.value.id), owner.attr, None), "__dict__", {})
                if not found:
                    problems.append(f"line {entry.lineno}: FUNCTIONS entry {ast.unparse(owner)}, {attr!r}")
    return problems


def test_harness_files_found():
    assert {p.name for p in HARNESS} >= {"spans.py", "workloads.py", "run.py"}


@pytest.mark.parametrize("path", HARNESS, ids=lambda p: p.name)
def test_harness_references_resolve(path):
    problems = _harness_problems(path.read_text())
    assert not problems, "the benchmark harness reads names ergocubes lacks: " + ", ".join(problems)


def test_the_harness_scan_sees_missing_names():
    source = (
        "from ergocubes import finite, gone\n"
        "from ergocubes.core import Observable, Missing\n"
        "import ergocubes\n"
        "finite.FiniteMPS, finite.no_such, ergocubes.finite\n"
        "FUNCTIONS = [\n"
        "    ('finite', 'is_free', 'a', None),\n"
        "    ('finite', 'no_attr', 'b', None),\n"
        "    (finite.FiniteMPS, '__init__', 'c', None),\n"
        "    (finite.FiniteMPS, 'no_method', 'd', None),\n"
        "    ('gone', 'anything', 'e', None),\n"
        "]\n"
    )
    assert _harness_problems(source) == [
        "line 1: ergocubes.gone",
        "line 2: ergocubes.core.Missing",
        "line 4: finite.no_such",
        "line 7: FUNCTIONS entry 'finite', 'no_attr'",
        "line 9: FUNCTIONS entry finite.FiniteMPS, 'no_method'",
        "line 10: FUNCTIONS entry 'gone', 'anything'",
    ]
