"""Layer tracing from outside the program.

`Tracer.install()` replaces public ergocubes functions with wrappers that
record one span per call: name, parent span, start and end.  A function is
replaced in every ergocubes module that binds it, so calls from one layer
into another are seen too.  A few constructors and methods are wrapped on
their class.  Counters are derived from each call's arguments and result;
they only read plain attributes (permutation tuples, dict sizes) and never
call back into the program, so tracing does not warm the program's caches.

Spans stay in memory; `metrics()` folds one traced pass into per-layer
numbers and `write()` dumps the spans as CSV at the end of a run.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

from ergocubes import averaging, cli, core, cubes, finite, joinings, linalg, torus, verify
import ergocubes

from oracle import cycle_length as _cycle

LAYERS = ("cli", "linalg", "joinings", "core", "finite", "averaging", "cubes", "torus")
_MODULES = (ergocubes, cli, linalg, joinings, core, finite, averaging, cubes, torus, verify)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _order(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    order = 1
    for x in range(len(perm)):
        if not seen[x]:
            length, y = 0, x
            while not seen[y]:
                seen[y] = True
                y = perm[y]
                length += 1
            order = math.lcm(order, length)
    return order


def _system_key(sys) -> tuple:
    return (sys.S, sys.T, sys.weights)


def _gen_cycle(sys, g, x: int) -> int:
    """Cycle length of S^i T^j at x, walked on the permutation tuples."""
    i, j = g.i % _order(sys.S), g.j % _order(sys.T)
    y, length = x, 0
    while True:
        for _ in range(i):
            y = sys.S[y]
        for _ in range(j):
            y = sys.T[y]
        length += 1
        if y == x:
            return length


# -- counters: (tracer, args, kwargs, result) -> None ------------------------


def _null_space(tr, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    ncols = _arg(args, kwargs, 1, "ncols")
    tr.counts["linalg.exact_null_space.rows"] += len(rows)
    tr.counts["linalg.exact_null_space.rank"] += ncols - len(result)


def _is_magic(tr, args, kwargs, result):
    tr.distinct["joinings.is_magic"].add(_system_key(_arg(args, kwargs, 0, "sys")))


def _host_measure(tr, args, kwargs, result):
    tr.distinct["joinings.host_measure"].add(_system_key(_arg(args, kwargs, 0, "sys")))
    tr.counts["joinings.host_measure.quads"] += len(result.mu_st.entries)


def _extension(tr, args, kwargs, result):
    tr.counts["joinings.magic_extension.components"] += len(result.components)
    tr.counts["joinings.magic_extension.evaluated"] += sum(c.magic is not None for c in result.components)
    tr.extension_points.append(result.system.n)


def _integrate(tr, args, kwargs, result):
    tr.counts["core.integrate.terms"] += len(_arg(args, kwargs, 0, "measure").entries)


def _sparse_measure(tr, args, kwargs, result):
    tr.counts["core.SparseMeasure.entries"] += len(args[0].entries)


def _is_free(tr, args, kwargs, result):
    sys = _arg(args, kwargs, 0, "sys")
    order_s, order_t = _order(sys.S), _order(sys.T)
    if order_s == 1 or order_t == 1:
        return
    # T-powers are tabulated once; S-powers are walked until a witness.
    s_powers = result.witness[0] + 1 if result.witness else order_s
    tr.counts["finite.is_free.powers"] += order_t + s_powers


def _residues(exponent_s: int, exponent_t: int):
    def count(tr, args, kwargs, result):
        sys = args[0]
        x, N = args[-2], args[-1]
        tr.counts["averaging.residue_terms"] += _cycle(sys.S, x) ** exponent_s * _cycle(sys.T, x) ** exponent_t

    return count


def _birkhoff(tr, args, kwargs, result):
    sys = _arg(args, kwargs, 0, "sys")
    x = _arg(args, kwargs, 2, "x")
    gens = _arg(args, kwargs, 3, "gens")
    tr.counts["averaging.residue_terms"] += math.prod(_gen_cycle(sys, g, x) for g in gens)


def _growth(key: str):
    def count(tr, args, kwargs, result):
        rows = result.rows
        if len(rows) > 1 and rows[0].wall_time > 0:
            tr.growth[key].append(rows[-1].wall_time / rows[0].wall_time)

    return count


def _cells(tr, args, kwargs, result):
    perms = _arg(args, kwargs, 0, "perms")
    starts = _arg(args, kwargs, 2, "starts")
    schedule = _arg(args, kwargs, 3, "schedule")
    m = len(perms[0])
    start_list = range(m) if starts == "all" else starts
    cells = sum(math.prod(_cycle(p, x) for p in perms) for x in start_list)
    tr.counts["cubes.empirical.cells"] += cells * len(schedule)


def _torus_name(args, kwargs) -> str:
    return "torus." + _arg(args, kwargs, 1, "kind")


def _torus_bytes(tr, args, kwargs, result):
    """Bytes of the float64 arrays the kernel fills, computed from N."""
    kind, N = _arg(args, kwargs, 1, "kind"), _arg(args, kwargs, 4, "N")
    phases = 2 * 8 * N  # x + i*alpha and j*beta
    grid = 8 * N * N
    extra = {
        "birkhoff_1d": 8 * N,
        "birkhoff_2d": grid,
        "cubic": 3 * 8 * N + grid,      # x + j*beta, f1 and f2 rows, f3 grid
        "windowed_sn": 3 * grid,        # evaluated blocks, the matrix, its Gram
        "fourfold": 0,
    }[kind]
    tr.counts["torus.computed_bytes"] += phases + extra


# (owner, attribute, span name, counter); owner is a module name, or a class
# for constructors and methods.
FUNCTIONS = [
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_extend", "cli.extend", None),
    ("cli", "cmd_analyze", "cli.analyze", None),
    ("cli", "cmd_average", "cli.average", None),
    ("cli", "cmd_cube", "cli.cube", None),
    ("linalg", "exact_null_space", "linalg.exact_null_space", _null_space),
    ("joinings", "is_magic", "joinings.is_magic", _is_magic),
    ("joinings", "magic_extension", "joinings.magic_extension", _extension),
    ("joinings", "measurability_check", "joinings.measurability_check", None),
    ("joinings", "host_measure", "joinings.host_measure", _host_measure),
    ("joinings", "host_seminorm", "joinings.host_seminorm", None),
    ("core", "integrate", "core.integrate", _integrate),
    ("finite", "is_free", "finite.is_free", _is_free),
    ("finite", "ergodic_decomposition", "finite.ergodic_decomposition", None),
    ("finite", "invariant_partition", "finite.invariant_partition", None),
    ("averaging", "run_average", "averaging.run_average", _growth("averaging")),
    ("averaging", "cubic_average", "averaging.cubic_average", _residues(1, 1)),
    ("averaging", "fourfold_average", "averaging.fourfold_average", _residues(2, 2)),
    ("averaging", "windowed_sn", "averaging.windowed_sn", _residues(2, 1)),
    ("averaging", "birkhoff_average", "averaging.birkhoff_average", _birkhoff),
    ("cubes", "empirical_unique_ergodicity", "cubes.empirical_unique_ergodicity", _cells),
    ("cubes", "cube_space", "cubes.cube_space", None),
    ("torus", "torus_average", _torus_name, _torus_bytes),
    ("torus", "torus_report", "torus.torus_report", _growth("torus")),
    (core.SparseMeasure, "__post_init__", "core.SparseMeasure", _sparse_measure),
    (finite.FiniteMPS, "__init__", "finite.FiniteMPS", None),
    (cubes.ActionSpace, "orbits", "cubes.orbits", None),
]


class Tracer:
    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.errors: Counter = Counter()
        self.distinct: Dict[str, set] = defaultdict(set)
        self.growth: Dict[str, List[float]] = defaultdict(list)
        self.extension_points: List[int] = []

    def _wrap(self, fn: Callable, name, counter) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = len(tracer.names)
            label = name(args, kwargs) if callable(name) else name
            tracer.names.append(label)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(time.perf_counter())
            tracer.ends.append(0.0)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[label.split(".", 1)[0]] += 1
                raise
            finally:
                tracer._stack.pop()
                tracer.ends[span] = time.perf_counter()
            tracer.counts[label + ".calls"] += 1
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name, counter in FUNCTIONS:
            if isinstance(owner, str):
                original = getattr(globals()[owner], attr)
                wrapper = self._wrap(original, name, counter)
                for module in _MODULES:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, key, value))
                            setattr(module, key, wrapper)
            else:
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus the durations of child spans."""
        child = [0.0] * len(self.names)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[span] - self.starts[span]
        out: Dict[str, float] = defaultdict(float)
        for span, name in enumerate(self.names):
            out[name] += self.ends[span] - self.starts[span] - child[span]
        return out

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        busy = self.self_times()
        c = self.counts
        m: Dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in busy.items() if k.split(".", 1)[0] == layer)
            m[f"{layer}.errors"] = self.errors[layer]
        for cmd in ("extend", "analyze", "average", "cube"):
            m[f"cli.{cmd}.busy_s"] = busy.get(f"cli.{cmd}", 0.0)
        for name in (
            "linalg.exact_null_space",
            "joinings.is_magic",
            "joinings.magic_extension",
            "joinings.measurability_check",
            "joinings.host_measure",
            "joinings.host_seminorm",
            "core.integrate",
            "core.SparseMeasure",
            "finite.is_free",
            "finite.ergodic_decomposition",
            "finite.FiniteMPS",
            "finite.invariant_partition",
            "averaging.run_average",
            "averaging.fourfold_average",
            "averaging.windowed_sn",
            "averaging.cubic_average",
            "averaging.birkhoff_average",
            "cubes.empirical_unique_ergodicity",
            "cubes.cube_space",
            "torus.cubic",
            "torus.windowed_sn",
            "torus.birkhoff_1d",
            "torus.birkhoff_2d",
            "torus.fourfold",
        ):
            m[f"{name}.busy_s"] = busy.get(name, 0.0)
        for name in (
            "linalg.exact_null_space.calls",
            "linalg.exact_null_space.rows",
            "linalg.exact_null_space.rank",
            "joinings.is_magic.calls",
            "joinings.host_measure.calls",
            "joinings.host_measure.quads",
            "core.integrate.terms",
            "core.SparseMeasure.entries",
            "finite.is_free.powers",
            "finite.FiniteMPS.calls",
            "averaging.residue_terms",
            "cubes.empirical.cells",
            "cubes.orbits.calls",
            "torus.computed_bytes",
        ):
            m[name] = c.get(name, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        m["linalg.exact_null_space.useful_row_ratio"] = ratio(
            c.get("linalg.exact_null_space.rank", 0), c.get("linalg.exact_null_space.rows", 0)
        )
        for name in ("joinings.is_magic", "joinings.host_measure"):
            m[f"{name}.repeat_ratio"] = ratio(c.get(name + ".calls", 0), len(self.distinct[name]))
        m["joinings.magic_extension.components_evaluated_ratio"] = ratio(
            c.get("joinings.magic_extension.evaluated", 0), c.get("joinings.magic_extension.components", 0)
        )
        m["joinings.magic_extension.max_points"] = max(self.extension_points, default=0)
        m["joinings.magic_extension.min_points"] = min(self.extension_points, default=0)
        for layer in ("averaging", "torus"):
            m[f"{layer}.row_growth"] = statistics.median(self.growth[layer]) if self.growth[layer] else 0.0
        return m

    def write(self, path):
        """Write the spans of the last traced pass as CSV."""
        with open(path, "w") as handle:
            handle.write("span,name,parent,start,end\n")
            for span, name in enumerate(self.names):
                handle.write(f"{span},{name},{self.parents[span]},{self.starts[span]!r},{self.ends[span]!r}\n")


def is_exact(name: str) -> bool:
    """Counters that repeat exactly for a fixed seed (everything but times)."""
    return unit(name) != "s" and not name.endswith((".row_growth", ".trace_overhead_frac"))


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last == "computed_bytes":
        return "bytes"
    if last.endswith(("ratio", "frac", "growth")):
        return "ratio"
    return "count"
