"""Source hygiene: no unused imports, no private names imported across modules,
no definition or dataclass field in ergocubes that nothing reads, one
definition alone reads the listed quadruple measure and the exact null space,
every name the benchmark harness reads from ergocubes still exists, the
package and each command load only the modules they use, and the test
references in `tests/oracles.py` stay independent of what they check."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ergocubes

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ergocubes").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
ORACLES = ROOT / "tests" / "oracles.py"

# What `tests/oracles.py` imports from ergocubes, exactly: constructors and
# data types, and the layers the old routes are built from.
ORACLE_IMPORTS = {
    "FiniteMPS", "FreenessResult", "Observable", "PreconditionError",
    "ComponentSummary", "ExtensionConstructionError", "MagicExtension", "MagicReport", "S_STAR", "T_STAR",
    "ergodic_decomposition", "invariant_w", "is_ergodic", "is_magic", "rel_indep_square",
    "check_schedule", "cond_exp", "cubic_average", "partition_s", "partition_t", "windowed_sn",
}

# Each reference in `tests/oracles.py`, and the program names it checks: the
# reference may not reach them.
REFERENCES = {
    "literal_cycle": ("perm_cycle", "orbit_grid", "partition_s", "partition_t"),
    "literal_cycle_length": ("perm_cycle", "orbit_grid", "order_s", "order_t"),
    "literal_stabilizer": ("is_free", "orbit_grid"),
    "literal_apply": ("apply", "group_perm", "orbit_grid"),
    "literal_birkhoff": ("birkhoff_average", "box_hits", "apply", "group_perm", "orbit_grid"),
    "literal_cubic": ("cubic_average", "cubic_rows", "_linear_table", "apply", "group_perm", "orbit_grid"),
    "literal_box_hits": ("box_hits",),
    "cycle_patterns": ("cube_space", "cube_over", "host_measure"),
    "autocorrelation_fourth_power": ("host_seminorm", "host_integral", "host_measure"),
    "is_free_brute": ("is_free",),
    "closure_orbits": ("host_measure", "orbit_grid", "partition_st"),
    "listed_mu_st": ("host_measure", "orbit_grid", "partition_st"),
    "measurable_by_spread": ("measurability_check", "host_measure", "invariant_w"),
    "magic_by_null_space": (
        "is_magic", "invariant_w", "measurability_check", "host_measure", "host_seminorm", "host_integral",
        "seminorm_kernel_basis", "exact_null_space",
    ),
    "magic_extension_by_decomposition": ("magic_extension", "cube_over", "is_free"),
    "listed_pushforward": ("product_cube_identification",),
    "three_track_decomposition": ("decompose_and_converge",),
    "fourier_limit": ("torus_report", "torus_average", "_frequency_table", "_window_average", "_mean_phase"),
    "fourier_window": ("torus_average", "_frequency_table", "_window_average", "_mean_phase", "_BOXES"),
}


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


@pytest.mark.parametrize("path", [p for p in SOURCES + TESTS if p.name != "__init__.py"], ids=lambda p: p.name)
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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.AST):
    """Each top-level function and class, and each method, as its node,
    except the dunders, which Python looks up by name (a module's
    `__getattr__` too)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_dunder(node.name):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name))


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read: as an `ast.Name`, as an attribute, as an
    imported name, or inside a string annotation."""
    reads = Counter(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
    reads.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    reads.update(alias.name for _, alias, _ in _imports(tree))
    reads.update(_annotation_names(tree))
    return reads


def _dataclass_fields(tree: ast.AST):
    """Each field of a top-level `@dataclass` class, as (class, annotated assignment)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
            if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
                fields = (item for item in node.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))
                yield from ((node, item) for item in fields)


def _dead_definitions(defining: dict, reading: list):
    """The definitions in the `defining` sources (label -> text) whose name
    is read nowhere in `reading` outside their own body, and the dataclass
    fields that no source in `reading` reads as an attribute; `cmd_*`
    handlers are exempt, since `cli.main` looks them up by name."""
    total, attributes = Counter(), set()
    for source in reading:
        tree = ast.parse(source)
        total += _reads(tree)
        attributes |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    dead = []
    for label, source in defining.items():
        tree = ast.parse(source)
        for node in _definitions(tree):
            if not node.name.startswith("cmd_") and total[node.name] == _reads(node)[node.name]:
                dead.append(f"{label}:{node.lineno} {node.name}")
        for cls, item in _dataclass_fields(tree):
            if item.target.id not in attributes:
                dead.append(f"{label}:{item.lineno} {cls.name}.{item.target.id}")
    return dead


def test_every_definition_is_read():
    reading = [p.read_text() for p in SOURCES + TESTS + HARNESS]
    dead = _dead_definitions({p.name: p.read_text() for p in SOURCES}, reading)
    assert not dead, "defined but never read: " + ", ".join(dead)


def test_the_scan_sees_a_dead_definition():
    module = (
        "def used():\n"
        "    return 1\n"
        "def dead(n):\n"
        "    return dead(n - 1)\n"
        "class Box:\n"
        "    def read(self):\n"
        "        return used()\n"
        "    def unread(self):\n"
        "        return Box()\n"
        "    def __repr__(self):\n"
        "        return 'Box'\n"
        "def cmd_run(args):\n"
        "    return 0\n"
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
        "@dataclass(frozen=True)\n"
        "class Row:\n"
        "    n: int\n"
        "    size: int\n"
    )
    # `size` is passed and named, but never read as an attribute
    user = "from mod import Box, Row\nBox().read()\nsize = Row(1, size=2).n\n"
    assert _dead_definitions({"mod.py": module}, [module, user]) == ["mod.py:3 dead", "mod.py:8 unread", "mod.py:19 Row.size"]


# The one definition in `src/` that reads the listed quadruple measure
# (`HostMeasure.mu_st`) and the exact null space, as (file, name).
NULL_SPACE_READER = ("joinings.py", "seminorm_kernel_basis")


def _null_space_reads(sources: dict):
    """Each read, in the sources (label -> text), of the attribute `mu_st` or
    of `exact_null_space` as a name, an attribute or an import, outside the
    top-level definition `NULL_SPACE_READER`.  The definitions themselves are
    no reads, and the import of `exact_null_space` into the reader's own file
    is exempt."""
    reads = []
    for label, source in sources.items():
        for top in ast.parse(source).body:
            if (label, getattr(top, "name", None)) == NULL_SPACE_READER:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("mu_st", "exact_null_space"):
                    reads.append(f"{label}:{node.lineno} {node.attr}")
                elif isinstance(node, ast.Name) and node.id == "exact_null_space":
                    reads.append(f"{label}:{node.lineno} {node.id}")
                elif isinstance(node, ast.ImportFrom) and label != NULL_SPACE_READER[0]:
                    reads += [f"{label}:{node.lineno} import {a.name}" for a in node.names if a.name == "exact_null_space"]
    return reads


def test_one_definition_reads_the_null_space():
    reads = _null_space_reads({p.name: p.read_text() for p in SOURCES})
    assert not reads, f"read outside {NULL_SPACE_READER[1]}: " + ", ".join(reads)


def test_the_scan_sees_a_planted_null_space_reader():
    reader = (
        "from .linalg import exact_null_space\n"
        "class HostMeasure:\n"
        "    @cached_property\n"
        "    def mu_st(self):\n"
        "        return self.parts\n"
        "def seminorm_kernel_basis(hm):\n"
        "    return exact_null_space(hm.mu_st.entries, hm.n)\n"
        "def is_magic(sys):\n"
        "    return len(host_measure(sys).mu_st.entries)\n"
    )
    other = "from .linalg import exact_null_space\nfrom . import linalg\nkernel = linalg.exact_null_space([], 0)\n"
    assert _null_space_reads({"joinings.py": reader, "cli.py": other}) == [
        "joinings.py:9 mu_st",
        "cli.py:1 import exact_null_space",
        "cli.py:3 exact_null_space",
    ]


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


def _oracle_problems(source: str, references: dict, allowed: set = ORACLE_IMPORTS):
    """What breaks the independence of a reference module: an import from
    ergocubes of a name outside `allowed`, a name in `allowed` that the module
    does not import, and a reference that reaches a program name it checks,
    as a Name or an Attribute in its own body or in a top-level definition of
    the module that it reaches.  Found with `ast`, without running the
    module."""
    tree = ast.parse(source)
    problems, imported = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            problems += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] == "ergocubes"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ergocubes":
            imported |= {a.name for a in node.names}
            problems += [f"line {node.lineno}: {node.module}.{a.name}" for a in node.names if a.name not in allowed]
    problems += [f"{name} is allowed but not imported" for name in sorted(allowed - imported)]
    uses = {}  # top-level name -> the names its definition mentions
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        mentioned = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        mentioned |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        for name in names:
            uses[name] = uses.get(name, set()) | (mentioned - {name})
    for reference, checked in references.items():
        if reference not in uses:
            problems.append(f"{reference} is not defined")
            continue
        reached, frontier = set(), [reference]
        while frontier:
            for name in uses.get(frontier.pop(), ()):
                if name not in reached:
                    reached.add(name)
                    frontier.append(name)
        problems += [f"{reference} reaches {name}" for name in checked if name in reached]
    return problems


def test_the_references_stay_independent():
    problems = _oracle_problems(ORACLES.read_text(), REFERENCES)
    assert not problems, "tests/oracles.py: " + ", ".join(problems)


def test_the_independence_scan_sees_a_forbidden_import_a_stale_entry_and_a_reached_name():
    source = (
        "import ergocubes.averaging\n"
        "from ergocubes.finite import FiniteMPS, is_free\n"
        "from ergocubes import joinings\n"
        "def is_free_brute(sys):\n"
        "    return is_free(sys)\n"
        "def _grid(sys):\n"
        "    return sys.orbit_grid(0)\n"
        "WALK = _grid\n"
        "def literal_cycle_length(perm, x):\n"
        "    return WALK(perm)\n"
        "def closure_orbits(sys):\n"
        "    return joinings.host_measure(sys)\n"
        "def literal_box_hits(step, start, d, N):\n"
        "    return FiniteMPS\n"
    )
    references = {
        "is_free_brute": ("is_free",),
        "literal_cycle_length": ("orbit_grid",),
        "closure_orbits": ("host_measure", "orbit_grid", "partition_st"),
        "literal_box_hits": ("box_hits",),
        "measurable_by_spread": ("measurability_check",),
    }
    assert _oracle_problems(source, references, {"FiniteMPS", "GroupElement"}) == [
        "line 1: import ergocubes.averaging",
        "line 2: ergocubes.finite.is_free",
        "line 3: ergocubes.joinings",
        "GroupElement is allowed but not imported",
        "is_free_brute reaches is_free",
        "literal_cycle_length reaches orbit_grid",
        "closure_orbits reaches host_measure",
        "measurable_by_spread is not defined",
    ]


def _fresh(code: str, *argv: str) -> str:
    """The last line a new interpreter prints after running `code` on `argv`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


def _loaded(code: str):
    """The ergocubes submodules a new interpreter has loaded after `code`."""
    listing = "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('ergocubes.'))))"
    return set(_fresh(code + listing).split())


def _after_main(*argv: str):
    return _loaded(f"from ergocubes.cli import main\nassert main({list(argv)!r}) == 0")


def test_import_loads_no_submodule():
    assert _loaded("import ergocubes") == set()


def test_a_finite_average_loads_no_cubes_torus_or_verify():
    loaded = _after_main(
        "average", "--builtin", "grid-2x3", "--kind", "cubic", "--observable", "1,0,-1/2,1,0,2", "--schedule", "1,4"
    )
    assert "ergocubes.averaging" in loaded
    assert loaded.isdisjoint({"ergocubes.cubes", "ergocubes.torus", "ergocubes.verify"})


@pytest.mark.parametrize("command", ["analyze", "extend"])
def test_analyze_and_extend_load_no_averaging(command):
    loaded = _after_main(command, "--builtin", "z4-diagonal")
    assert "ergocubes.joinings" in loaded
    assert loaded.isdisjoint({"ergocubes.averaging", "ergocubes.cubes", "ergocubes.torus", "ergocubes.verify"})


def _defining_modules():
    """Each top-level name that a module of ergocubes defines rather than
    imports, with the modules that define it."""
    where = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                where.setdefault(name, []).append(f"ergocubes.{path.stem}")
    return where


def test_every_export_is_the_object_its_module_defines():
    # resolved in a new interpreter, where the package starts with no
    # submodule loaded
    where = _defining_modules()
    assert len(ergocubes.__all__) == 86 and all(len(where.get(name, ())) == 1 for name in ergocubes.__all__)
    probe = (
        "import importlib, json, sys, ergocubes\n"
        "where = json.loads(sys.argv[1])\n"
        "same = [n for n, m in where.items() if getattr(ergocubes, n) is getattr(importlib.import_module(m), n)]\n"
        "print(json.dumps([same, sorted(set(ergocubes.__all__) - set(dir(ergocubes))), hasattr(ergocubes, 'nonesuch')]))"
    )
    exports = {name: where[name][0] for name in ergocubes.__all__}
    assert json.loads(_fresh(probe, json.dumps(exports))) == [list(exports), [], False]
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        ergocubes.nonesuch


# every module but the package and the command line, each an attribute of a
# bare `import ergocubes` as when the package imported them all
SUBMODULES = sorted(path.stem for path in SOURCES if path.stem not in ("__init__", "cli"))


@pytest.mark.parametrize("name", SUBMODULES)
def test_a_bare_import_reaches_each_submodule(name):
    probe = (
        "import sys, ergocubes\n"
        f"print(ergocubes.{name} is sys.modules['ergocubes.{name}'] and {name!r} in dir(ergocubes))"
    )
    assert _fresh(probe) == "True"
