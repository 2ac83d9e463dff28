"""Workload generation: seeded inputs and the job list of each workload.

A job is one CLI-equivalent call (`ergocubes.cli.main(argv)`) or one sequence
of library calls.  The seed only relabels points and draws observables,
trigonometric coefficients and starts; the size classes (system shapes,
window schedules, job counts) are fixed, so two seeds give the same exact
size counters.  `seed=None` gives the canonical labelling, from which
`make_golden.py` records the outputs that do not depend on labels.

Program functions are looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, List, Optional, Sequence

from ergocubes import averaging, cli, core, finite, joinings, torus

import oracle

WORKLOADS = ("extend", "sweep", "average")

# extend: cyclic bases Z_n with S = +1 and T = +t.  They are never free
# (S^t = T), and their magic extensions have n^2 points.  Z_9 and up cost
# seconds per magic decision, so the list stops at Z_8 and a run fits
# several passes.
EXTEND_BASES = ((7, 3), (8, 3))
# analyze on S = T with coprime cycle lengths: order 30,030 on 41 points.
HIGH_ORDER_CYCLES = (2, 3, 5, 7, 11, 13)

# sweep: many small systems; each extension has at most 36 points.
SWEEP_SYSTEMS = 100  # of each generator, so 200 jobs
SWEEP_MAX_ORDER = 3
SWEEP_WINDOWS = (5, 2**61 - 1)

# average: finite grids with pow2 schedules up to 2^60, the torus with the
# grid kinds kept small, and cube reports on transitive cube spaces.
FINITE_AVERAGES = (
    # (grid, a, b, kind, schedule)
    ("product", 12, 12, "fourfold", "pow2:54..60"),
    ("product", 12, 12, "windowed_sn", "pow2:30..60"),
    ("diagonal", 6, 4, "fourfold", "pow2:30..60"),
    ("diagonal", 6, 4, "windowed_sn", "pow2:0..60"),
    ("diagonal", 6, 4, "cubic", "pow2:0..60"),
    ("diagonal", 6, 4, "birkhoff_1d", "pow2:0..60"),
    ("diagonal", 6, 4, "birkhoff_2d", "pow2:0..60"),
    ("product", 4, 6, "cubic", "pow2:0..60"),
    ("product", 4, 6, "birkhoff_2d", "pow2:0..60"),
)
TORUS_AVERAGES = (
    ("cubic", "pow2:4..10"),
    ("windowed_sn", "pow2:4..11"),
    ("birkhoff_2d", "pow2:4..10"),
    ("birkhoff_1d", "pow2:4..12"),
    ("fourfold", "pow2:4..12"),
)
CUBE_GRIDS = ((2, 3), (2, 4), (3, 3))  # diagonal grids: 108, 128 and 81 quadruples
CUBE_SCHEDULE = "3,7,16"

OBSERVABLE_VALUES = tuple(Fraction(v, 2) for v in (-2, -1, 0, 1, 2))
TRIG_VALUES = (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75)  # exact in binary


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    # Reads what the run left on disk; untimed.
    after: Optional[Callable[[object], object]] = None
    # Labelling-independent part of the output, compared with golden.json.
    invariant: Optional[Callable[[object], object]] = None
    # Independent checks; returns a list of problems.
    check: Optional[Callable[[object], List[str]]] = None


def run_cli(argv: Sequence[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _relabel(sys, rng: Optional[Random]):
    """A system document with points renamed by a seeded permutation, and
    the permutation (new[x] is the new name of point x)."""
    n = sys.n
    new = list(range(n))
    if rng is not None:
        rng.shuffle(new)
    S, T, w = [0] * n, [0] * n, [""] * n
    for x in range(n):
        S[new[x]] = new[sys.S[x]]
        T[new[x]] = new[sys.T[x]]
        w[new[x]] = oracle.fmt(sys.weights[x])
    return {"n": n, "weights": w, "S": S, "T": T}, new


def _write(path: str, doc: dict) -> str:
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


def _fractions(doc: dict) -> List[Fraction]:
    return [Fraction(w) for w in doc["weights"]]


def _observable(rng: Optional[Random], n: int, salt: int) -> List[Fraction]:
    if rng is None:
        return [OBSERVABLE_VALUES[(x + salt) % len(OBSERVABLE_VALUES)] for x in range(n)]
    return [rng.choice(OBSERVABLE_VALUES) for _ in range(n)]


# -- extend ------------------------------------------------------------------


def _check_extension(base: dict, text: str) -> List[str]:
    doc = json.loads(text)
    problems = []
    n, S, T, factor = doc["n"], doc["S"], doc["T"], doc["factor"]
    w = _fractions(doc)
    bw = _fractions(base)
    if {k: doc["base"][k] for k in base} != base:
        problems.append("written base differs from the input system")
    if sorted(S) != list(range(n)) or sorted(T) != list(range(n)) or len(w) != n:
        problems.append("extension maps are not permutations of its points")
        return problems
    if any(S[T[x]] != T[S[x]] for x in range(n)):
        problems.append("extension maps do not commute")
    if sum(w) != 1 or any(v <= 0 or w[S[x]] != v or w[T[x]] != v for x, v in enumerate(w)):
        problems.append("extension weights are not an invariant probability")
    if any(factor[S[x]] != base["S"][factor[x]] or factor[T[x]] != base["T"][factor[x]] for x in range(n)):
        problems.append("factor map does not intertwine the actions")
    pushed = [Fraction(0)] * base["n"]
    for x in range(n):
        pushed[factor[x]] += w[x]
    if pushed != bw:
        problems.append("factor map does not push the extension measure onto the base")
    return problems


def _extend_job(name: str, sys, rng, workdir: str) -> Job:
    base, _ = _relabel(sys, rng)
    base_path = _write(os.path.join(workdir, f"{name}.json"), base)
    ext_path = os.path.join(workdir, f"{name}-ext.json")

    def run():
        return run_cli(["extend", "--system", base_path, "--out", ext_path]), run_cli(["analyze", "--system", ext_path])

    def after(out):
        with open(ext_path) as handle:
            return out + (handle.read(),)

    def invariant(out):
        (code1, text1, _), (code2, text2, _), _ = out
        return [code1, text1.replace(ext_path, "<out>"), code2, text2]

    return Job(f"extend/{name}", run, after, invariant, lambda out: _check_extension(base, out[2]))


def _high_order_system():
    S, offset = [], 0
    for length in HIGH_ORDER_CYCLES:
        S += [offset + (i + 1) % length for i in range(length)]
        offset += length
    return finite.FiniteMPS([Fraction(1, offset)] * offset, S, S)


def _analyze_job(name: str, sys, rng, workdir: str) -> Job:
    path = _write(os.path.join(workdir, f"{name}.json"), _relabel(sys, rng)[0])

    def run():
        return run_cli(["analyze", "--system", path])

    return Job(f"analyze/{name}", run, invariant=lambda out: [out[0], out[1]])


def extend_jobs(rng, workdir) -> List[Job]:
    jobs = [
        _extend_job(f"z{n}-t{t}", finite.translation_system(n, 1, (1, 0), (t, 0)), rng, workdir)
        for n, t in EXTEND_BASES
    ]
    jobs.append(_analyze_job("order30030", _high_order_system(), rng, workdir))
    return jobs


# -- sweep -------------------------------------------------------------------


def _sweep_run(doc, obs, x, ergodic):
    sys = finite.system_from_dict(doc)
    f, g = core.Observable(obs[0]), core.Observable(obs[1])
    hm = joinings.host_measure(sys)
    seminorm = joinings.host_seminorm(hm, f).fourth_power
    integral = core.integrate(hm.mu_st, (f, g, f, g))
    magic = joinings.is_magic(sys)
    free = finite.is_free(sys)
    components = finite.ergodic_decomposition(sys)
    measurable = joinings.measurability_check(sys)
    ext = joinings.magic_extension(sys) if ergodic else None
    averages = []
    for N in SWEEP_WINDOWS:
        averages += [
            averaging.cubic_average(sys, f, g, f, x, N),
            averaging.fourfold_average(sys, f, g, f, g, x, N),
            averaging.windowed_sn(sys, f, x, N),
            averaging.birkhoff_average(sys, f, x, [finite.S_GEN, finite.T_GEN], N),
        ]
    verdict = [
        magic.is_magic,
        magic.direction,
        magic.seminorm_kernel_dim,
        magic.mean_zero_dim,
        free.free,
        list(free.witness) if free.witness else None,
        sorted([len(c.support), oracle.fmt(c.mass)] for c in components),
        measurable,
    ]
    if ext is not None:
        summaries = sorted(
            f"{c.size}|{oracle.fmt(c.mass)}|{c.magic}|{c.free}|{c.selected}|{c.rejection}" for c in ext.components
        )
        verdict.append([ext.system.n, oracle.fmt(ext.mass), summaries])
    return verdict, seminorm, integral, tuple(averages)


def _check_sweep(doc, obs, x, out) -> List[str]:
    _, seminorm, integral, averages = out
    S, T, w = doc["S"], doc["T"], _fractions(doc)
    f, g = obs
    problems = []
    if seminorm != oracle.host_integral(S, T, w, [f, f, f, f]):
        problems.append("host_seminorm differs from the factored four-fold integral")
    if integral != oracle.host_integral(S, T, w, [f, g, f, g]):
        problems.append("integrate differs from the factored four-fold integral")
    kinds = (("cubic", [f, g, f]), ("fourfold", [f, g, f, g]), ("windowed_sn", [f]), ("birkhoff_2d", [f]))
    values = iter(averages)
    for N in SWEEP_WINDOWS:
        for kind, fs in kinds:
            if next(values) != oracle.finite_average(kind, S, T, fs, x, N):
                problems.append(f"{kind} at N={N} differs from the residue-count reference")
    # The literal loops are the program's own references; they are only
    # affordable at the small window.
    N = SWEEP_WINDOWS[0]
    sys = finite.system_from_dict(doc)
    F, G = core.Observable(f), core.Observable(g)
    if averages[1] != averaging.fourfold_average_naive(sys, F, G, F, G, x, N):
        problems.append(f"fourfold at N={N} differs from the literal loop")
    if averages[2] != averaging.windowed_sn_naive(sys, F, x, N):
        problems.append(f"windowed_sn at N={N} differs from the literal loop")
    return problems


def _joint_orbit(sys, x: int) -> List[int]:
    orbit, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for z in (sys.S[y], sys.T[y]):
            if z not in orbit:
                orbit.add(z)
                todo.append(z)
    return sorted(orbit)


def sweep_structures():
    """The fixed shapes: (name, canonical system, ergodic?)."""
    out = []
    for k in range(SWEEP_SYSTEMS):
        out.append((f"system-{k:03d}", finite.random_system(Random(1000 + k), max_order=SWEEP_MAX_ORDER)))
        out.append((f"ergodic-{k:03d}", finite.random_ergodic_system(Random(2000 + k), max_order=SWEEP_MAX_ORDER)))
    return [(name, sys, finite.is_ergodic(sys)) for name, sys in out]


def sweep_jobs(rng, workdir) -> List[Job]:
    jobs = []
    for k, (name, sys, ergodic) in enumerate(sweep_structures()):
        doc, new = _relabel(sys, rng)
        obs = [_observable(rng, sys.n, k), _observable(rng, sys.n, k + 1)]
        # Cycle lengths, and so the residue sums' cost, are constant on the
        # translation piece that holds point 0; draw the start from it.
        x = new[rng.choice(_joint_orbit(sys, 0)) if rng is not None else 0]

        def run(doc=doc, obs=obs, x=x, ergodic=ergodic):
            return _sweep_run(doc, obs, x, ergodic)

        def check(out, doc=doc, obs=obs, x=x):
            return _check_sweep(doc, obs, x, out)

        jobs.append(Job(f"sweep/{name}", run, invariant=lambda out: out[0], check=check))
    return jobs


# -- average -----------------------------------------------------------------


def _finite_average_job(grid, a, b, kind, schedule, rng, workdir) -> Job:
    make = finite.product_grid if grid == "product" else finite.diagonal_grid
    doc, _ = _relabel(make(a, b), rng)
    path = _write(os.path.join(workdir, f"{grid}-{a}x{b}-{kind}.json"), doc)
    need = averaging.AVERAGE_KINDS[kind]
    obs = [_observable(rng, doc["n"], k) for k in range(need)]
    x = rng.randrange(doc["n"]) if rng is not None else 0
    # --observable=VALUES: a first value like -1/2 given as a separate
    # argument is taken for an option and rejected by argparse.
    argv = ["average", "--system", path, "--kind", kind, "--schedule", schedule, "--start", str(x)]
    argv += [f"--observable={','.join(oracle.fmt(v) for v in f)}" for f in obs]
    lo, hi = (int(v) for v in schedule[len("pow2:"):].split(".."))

    def check(out):
        if out[0] != 0:
            return [f"exit code {out[0]}: {out[2]}"]
        want = oracle.finite_csv(kind, doc["S"], doc["T"], _fractions(doc), obs, x, [2**k for k in range(lo, hi + 1)])
        return [] if out[1] == want else [f"CSV differs from the exact reference:\n{out[1]}\nexpected:\n{want}"]

    return Job(f"average/{grid}-{a}x{b}-{kind}", lambda: run_cli(argv), check=check)


def _trig(rng: Optional[Random], salt: int) -> dict:
    """A degree-2 real trigonometric polynomial as {n: c_n}."""
    pick = (lambda k: TRIG_VALUES[(salt + k) % len(TRIG_VALUES)]) if rng is None else (lambda k: rng.choice(TRIG_VALUES))
    coeffs = {0: complex(pick(0), 0)}
    for n in (1, 2):
        c = complex(pick(2 * n - 1), pick(2 * n))
        coeffs[n], coeffs[-n] = c, c.conjugate()
    return coeffs


def _torus_average_job(kind, schedule, rng) -> Job:
    polys = [_trig(rng, k) for k in range(averaging.AVERAGE_KINDS[kind])]
    start = Fraction(rng.randrange(1, 97) if rng is not None else 1, 97)
    argv = ["average", "--builtin", "torus-sqrt23", "--kind", kind, "--schedule", schedule, "--start", oracle.fmt(start)]
    for p in polys:
        argv.append("--trig=" + ";".join(f"{n}:{p[n].real!r}:{p[n].imag!r}" for n in (0, 1, 2)))
    lo, hi = (int(v) for v in schedule[len("pow2:"):].split(".."))
    system = torus.sqrt23_system()

    def check(out):
        code, text, _ = out
        lines = text.splitlines()
        if code != 0 or lines[0] != "N,value,reference,abs_error" or len(lines) != hi - lo + 2:
            return [f"unexpected torus report (exit {code}):\n{text}"]
        ref = oracle.TorusOracle.limit(kind, polys, start)
        tor = oracle.TorusOracle(system.alpha, system.beta)
        problems = []
        for k, line in zip(range(lo, hi + 1), lines[1:]):
            N, value, reference, err = line.split(",")
            value, reference, err = float(value), float(reference), float(err)
            if int(N) != 2**k or err != abs(value - reference):
                problems.append(f"malformed row {line!r}")
            if not oracle.torus_close(value, tor.average(kind, polys, start, 2**k)):
                problems.append(f"N={N}: value {value!r} is off the closed form")
            if not oracle.torus_close(reference, ref):
                problems.append(f"N={N}: reference {reference!r} is off the analytic limit")
        return problems

    return Job(f"average/torus-{kind}", lambda: run_cli(argv), check=check)


def _cube_job(a, b, rng, workdir) -> Job:
    path = _write(os.path.join(workdir, f"cube-{a}x{b}.json"), _relabel(finite.diagonal_grid(a, b), rng)[0])
    argv = ["cube", "--system", path, "--schedule", CUBE_SCHEDULE]
    return Job(f"cube/diagonal-{a}x{b}", lambda: run_cli(argv), invariant=lambda out: [out[0], out[1]])


def average_jobs(rng, workdir) -> List[Job]:
    jobs = [_finite_average_job(*spec, rng, workdir) for spec in FINITE_AVERAGES]
    jobs += [_torus_average_job(kind, schedule, rng) for kind, schedule in TORUS_AVERAGES]
    jobs += [_cube_job(a, b, rng, workdir) for a, b in CUBE_GRIDS]
    return jobs


def make_jobs(workload: str, seed: Optional[int], workdir: str) -> List[Job]:
    """Generate the inputs of `workload` under `workdir` and return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    rng = None if seed is None else Random(f"{workload}:{seed}")
    return {"extend": extend_jobs, "sweep": sweep_jobs, "average": average_jobs}[workload](rng, workdir)
