"""Seeded property sweeps over the whole toolkit.

Each suite draws random systems and observables from a seeded generator and
checks the exact identities the constructions promise: nonnegativity and
invariance of the seminorm, the four-fold Cauchy-Schwarz inequality, marginal
laws of the self-joinings, extension correctness, factored-versus-naive
average equality, and the window bound.  Results come back as counts plus
human-readable findings, so the command-line `verify` run can print one line
per suite and fail loudly on any violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from random import Random
from typing import List, NamedTuple, Sequence, Tuple

from .core import Observable, Partition, SparseMeasure, common_refinement, integrate, marginal
from .finite import (
    FiniteMPS,
    GroupElement,
    InvalidSystemError,
    S_GEN,
    check_commuting,
    ergodic_decomposition,
    is_ergodic,
    is_free,
    perm_cycle,
    product_grid,
    random_ergodic_system,
    random_product_system,
    random_system,
    system_from_dict,
    system_to_dict,
    translation_system,
)
from .joinings import (
    cond_exp,
    host_integral,
    host_measure,
    host_seminorm,
    invariant_w,
    is_magic,
    magic_extension,
    rel_indep_square,
)
from .cubes import cube_space, empirical_unique_ergodicity, product_cube_identification, two_sided_cube
from .averaging import (
    birkhoff_average,
    check_bound_average,
    check_telescoping,
    decompose_and_converge,
    fourfold_average,
    fourfold_average_naive,
    sn_sum,
    window_counts,
    windowed_sn,
    windowed_sn_naive,
)
from .torus import TrigPoly, sqrt23_system, torus_average, torus_average_naive, torus_report


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    failures: int
    findings: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"{self.name:10s} {status:4s} trials={self.trials} failures={self.failures}"


def _random_observable(rng: Random, n: int, lo: int = -2, hi: int = 2) -> Observable:
    return Observable(tuple(Fraction(rng.randint(lo, hi)) for _ in range(n)))


def _sign_observable(rng: Random, n: int) -> Observable:
    return Observable(tuple(Fraction(rng.choice((-1, 1))) for _ in range(n)))


def verify_core(seed: int, trials: int) -> SuiteResult:
    rng = Random(seed)
    findings: List[str] = []
    for trial in range(trials):
        n = rng.randint(1, 10)
        pa = Partition.from_labels([rng.randrange(3) for _ in range(n)])
        pb = Partition.from_labels([rng.randrange(3) for _ in range(n)])
        ref = common_refinement(pa, pb)
        if not (ref.refines(pa) and ref.refines(pb)):
            findings.append(f"trial {trial}: common refinement does not refine both parts")
        if not Partition.singletons(n).refines(ref):
            findings.append(f"trial {trial}: singleton partition fails to refine a refinement")
        f = _random_observable(rng, n)
        g = _random_observable(rng, n)
        if (f + g).values != tuple(a + b for a, b in zip(f.values, g.values)):
            findings.append(f"trial {trial}: observable addition is not pointwise")
        if (f * g).values != tuple(a * b for a, b in zip(f.values, g.values)):
            findings.append(f"trial {trial}: observable product is not pointwise")
        sys = random_system(rng)
        mu_s = rel_indep_square(sys)
        h0, h1 = _random_observable(rng, sys.n), _random_observable(rng, sys.n)
        direct = integrate(mu_s, (h0, h1))
        literal = sum((m * h0.values[p[0]] * h1.values[p[1]] for p, m in mu_s.entries.items()), Fraction(0))
        if direct != literal:
            findings.append(f"trial {trial}: product integration disagrees with the literal sum")
    return SuiteResult("core", trials, len(findings), tuple(findings))


def verify_finite(seed: int, trials: int) -> SuiteResult:
    rng = Random(seed)
    findings: List[str] = []
    for trial in range(trials):
        sys = random_system(rng, max_order=4, max_components=3)
        parts = ergodic_decomposition(sys)
        if sum((c.mass for c in parts), Fraction(0)) != 1:
            findings.append(f"trial {trial}: component masses do not sum to 1")
        for comp in parts:
            sub = comp.subsystem(sys)
            if not is_ergodic(sub):
                findings.append(f"trial {trial}: a component subsystem is not transitive")
            if len(set(sub.weights)) != 1:
                findings.append(f"trial {trial}: an ergodic component is not uniformly weighted")
        g = GroupElement(rng.randint(-5, 5), rng.randint(-5, 5))
        x = rng.randrange(sys.n)
        s_inv = {sys.S[p]: p for p in range(sys.n)}
        t_inv = {sys.T[p]: p for p in range(sys.n)}
        stepped = x
        for _ in range(abs(g.i)):
            stepped = sys.S[stepped] if g.i > 0 else s_inv[stepped]
        for _ in range(abs(g.j)):
            stepped = sys.T[stepped] if g.j > 0 else t_inv[stepped]
        if sys.apply(g, x) != stepped:
            findings.append(f"trial {trial}: power application disagrees with one-step walking")
        free = is_free(sys)
        if not free.free:
            w = free.witness
            if w == (0, 0) or sys.group_perm(GroupElement(*w)) != tuple(range(sys.n)):
                findings.append(f"trial {trial}: freeness witness {w} is not a nontrivial identity power")
        if system_from_dict(system_to_dict(sys)) != sys:
            findings.append(f"trial {trial}: dict round trip changed the system")
    return SuiteResult("finite", trials, len(findings), tuple(findings))


def verify_joinings(seed: int, trials: int) -> SuiteResult:
    rng = Random(seed)
    findings: List[str] = []
    for trial in range(trials):
        sys = random_system(rng)
        hm = host_measure(sys)
        base = {(x,): w for x, w in enumerate(sys.weights)}
        mu_s = rel_indep_square(sys)
        for coord in range(2):
            if marginal(mu_s, coord).entries != base:
                findings.append(f"trial {trial}: pair measure marginal {coord} is not the base measure")
        one = Observable.constant(sys.n, 1)
        for coord in range(4):
            if any(host_integral(hm, [Observable.indicator(sys.n, x) if k == coord else one for k in range(4)]) != w
                   for x, w in enumerate(sys.weights)):
                findings.append(f"trial {trial}: quadruple measure marginal {coord} is not the base measure")
        fs = [_random_observable(rng, sys.n) for _ in range(4)]
        norms = [host_seminorm(hm, f).fourth_power for f in fs]
        if any(v < 0 for v in norms):
            findings.append(f"trial {trial}: a fourth-power seminorm is negative")
        cross = host_integral(hm, fs)
        if cross**4 > norms[0] * norms[1] * norms[2] * norms[3]:
            findings.append(f"trial {trial}: four-fold Cauchy-Schwarz fails")
        scale = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if host_seminorm(hm, fs[0] * scale).fourth_power != scale**4 * norms[0]:
            findings.append(f"trial {trial}: seminorm is not quartically homogeneous")
        shifted_s = Observable(tuple(fs[0].values[sys.S[x]] for x in range(sys.n)))
        shifted_t = Observable(tuple(fs[0].values[sys.T[x]] for x in range(sys.n)))
        if (host_seminorm(hm, shifted_s).fourth_power != norms[0]
                or host_seminorm(hm, shifted_t).fourth_power != norms[0]):
            findings.append(f"trial {trial}: seminorm is not invariant under the generators")
        ce = cond_exp(sys, fs[0], invariant_w(sys))
        kept = sum((sys.weights[x] * ce.values[x] for x in range(sys.n)), Fraction(0))
        plain = sum((sys.weights[x] * fs[0].values[x] for x in range(sys.n)), Fraction(0))
        if kept != plain:
            findings.append(f"trial {trial}: conditional expectation does not preserve the integral")
    return SuiteResult("joinings", trials, len(findings), tuple(findings))


def verify_extension(seed: int, trials: int) -> SuiteResult:
    rng = Random(seed)
    findings: List[str] = []
    for trial in range(trials):
        sys = random_ergodic_system(rng, max_order=4)
        try:
            ext = magic_extension(sys)
        except Exception as exc:
            findings.append(f"trial {trial}: extension construction failed: {exc}")
            continue
        big = ext.system
        if not is_magic(big).is_magic:
            findings.append(f"trial {trial}: extension is not magic")
        if not is_ergodic(big):
            findings.append(f"trial {trial}: extension is not ergodic")
        if not is_free(big).free:
            findings.append(f"trial {trial}: extension is not free")
        pushed = [Fraction(0)] * sys.n
        for p in range(big.n):
            pushed[ext.factor[p]] += big.weights[p]
        if pushed != list(sys.weights):
            findings.append(f"trial {trial}: factor map does not push the measure to the base")
        for p in range(big.n):
            if ext.factor[big.S[p]] != sys.S[ext.factor[p]]:
                findings.append(f"trial {trial}: factor map does not intertwine S")
                break
            if ext.factor[big.T[p]] != sys.T[ext.factor[p]]:
                findings.append(f"trial {trial}: factor map does not intertwine T")
                break
    return SuiteResult("extension", trials, len(findings), tuple(findings))


def verify_cubes(seed: int, trials: int) -> SuiteResult:
    rng = Random(seed)
    findings: List[str] = []
    for trial in range(trials):
        sys = random_system(rng, max_order=3)
        space = cube_space(sys)
        perms = list(space.perms.values())
        try:
            check_commuting(perms, space.size, list(space.perms))
        except InvalidSystemError as exc:
            findings.append(f"trial {trial}: cube transforms: {exc}")
        if host_measure(sys).quadruple_support() != set(space.points):
            findings.append(f"trial {trial}: quadruple measure support differs from the cube space")
        pairs = two_sided_cube(sys, S_GEN)
        if set(pairs.points) != set(rel_indep_square(sys).entries):
            findings.append(f"trial {trial}: pair space differs from the pair measure support")
        # empirical engine: exact stabilization at a full period, failure on a
        # deliberately wrong reference
        if space.size >= 2:
            period = math.lcm(*(len(perm_cycle(perm, 0)) for perm in perms))
            orbit0 = space.orbits()[0]
            mass = Fraction(1, len(orbit0))
            ref = SparseMeasure(arity=1, n=space.size, entries={(k,): mass for k in orbit0})
            rep = empirical_unique_ergodicity(perms, ref, [0], [period, 2 * period])
            if any(row.value != 0 for row in rep.rows):
                findings.append(f"trial {trial}: deviation from the orbit measure is nonzero at a full period")
            wrong = SparseMeasure(arity=1, n=space.size, entries={(orbit0[0],): Fraction(1)})
            if len(orbit0) >= 2:
                rep_bad = empirical_unique_ergodicity(perms, wrong, [0], [period])
                if rep_bad.rows[0].value == 0:
                    findings.append(f"trial {trial}: empirical engine accepts a wrong reference")
    return SuiteResult("cubes", trials, len(findings), tuple(findings))


def verify_product_cubes(seed: int, trials: int) -> SuiteResult:
    rng = Random(seed)
    findings: List[str] = []
    for trial in range(trials):
        a = rng.randint(1, 5)
        b = rng.randint(1, 5)
        first = translation_system(a, 1, (1 % a, 0), (0, 0))
        second = translation_system(1, b, (0, 0), (0, 1 % b))
        report = product_cube_identification(first, second)
        if not report.bijective:
            findings.append(f"trial {trial}: map on quadruples is not a bijection (a={a}, b={b})")
        if not report.intertwines:
            findings.append(f"trial {trial}: map does not conjugate the transform actions (a={a}, b={b})")
        if not report.measure_matches:
            findings.append(f"trial {trial}: pushforward is not the product of pair measures (a={a}, b={b})")
        if report.cube_size != (a * a) * (b * b):
            findings.append(f"trial {trial}: quadruple count {report.cube_size} != {a * a * b * b}")
    return SuiteResult("products", trials, len(findings), tuple(findings))


def verify_averaging(seed: int, trials: int) -> SuiteResult:
    rng = Random(seed)
    findings: List[str] = []
    for trial in range(trials):
        sys = random_system(rng, max_order=3)
        fs = [_random_observable(rng, sys.n) for _ in range(4)]
        x = rng.randrange(sys.n)
        for N in (1, 2, 3, 5):
            if fourfold_average(sys, *fs, x, N) != fourfold_average_naive(sys, *fs, x, N):
                findings.append(f"trial {trial}: factored four-fold average differs from the literal loop at N={N}")
            if windowed_sn(sys, fs[0], x, N) != windowed_sn_naive(sys, fs[0], x, N):
                findings.append(f"trial {trial}: factored window average differs from the literal loop at N={N}")
        signs = [_sign_observable(rng, sys.n) for _ in range(3)]
        N = rng.randint(1, 16)
        chk = check_bound_average(sys, *signs, x, N)
        if not chk.holds:
            findings.append(f"trial {trial}: window bound fails at N={N}: {chk.lhs} > {chk.rhs}")
        k = rng.randint(1, 5)
        tele = check_telescoping(
            [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(k)],
            [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(k)],
        )
        if not tele.identity or tele.bound is False:
            findings.append(f"trial {trial}: telescoping identity or bound fails")
        N = rng.randint(1, 6)
        manual = sum(
            (fs[0].values[sys.apply(GroupElement(i, 0), x)] for i in range(N)),
            Fraction(0),
        ) / N
        if birkhoff_average(sys, fs[0], x, [S_GEN], N) != manual:
            findings.append(f"trial {trial}: one-dimensional average differs from the literal loop")
    return SuiteResult("averaging", trials, len(findings), tuple(findings))


def verify_decomposition(seed: int, trials: int) -> SuiteResult:
    rng = Random(seed)
    findings: List[str] = []
    for trial in range(trials):
        sys = random_product_system(rng, max_order=4)
        fs = [_random_observable(rng, sys.n) for _ in range(3)]
        x = rng.randrange(sys.n)
        a, b, _ = sys.orbit_grid(x)
        period = math.lcm(a, b)
        schedule = sorted({max(1, period // 2), period, 2 * period})
        for row in decompose_and_converge(sys, *fs, x, schedule).rows:
            if row.N % period == 0 and row.value != row.reference:
                findings.append(f"trial {trial}: averages do not stabilize at the full period N={row.N}")
    return SuiteResult("decompose", trials, len(findings), tuple(findings))


def verify_torus(seed: int, trials: int) -> SuiteResult:
    rng = Random(seed)
    system = sqrt23_system()
    findings: List[str] = []
    cos1 = TrigPoly.cosine(1)
    if abs(torus_report(system, "fourfold", [cos1] * 4, 0, [1]).rows[0].reference - 0.125) > 1e-12:
        findings.append("four-fold integral of cos^[4] is not 1/8")
    if abs(torus_report(system, "cubic", [cos1] * 3, 0, [1]).rows[0].reference - 0.25) > 1e-12:
        findings.append("cubic limit of cos^[3] at 0 is not 1/4")
    for trial in range(trials):
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(0, 3)
            re = rng.randint(-2, 2) / 4
            im = 0.0 if n == 0 else rng.randint(-2, 2) / 4
            coeffs[n] = coeffs.get(n, 0j) + complex(re, im)
            if n:
                coeffs[-n] = coeffs.get(-n, 0j) + complex(re, -im)
        f = TrigPoly(coeffs)
        start = Fraction(rng.randint(0, 6), 7)
        N = rng.randint(1, 4)
        for kind, obs in (("cubic", [f, f, f]), ("fourfold", [f, f, f, f]),
                          ("windowed_sn", [f]), ("birkhoff_2d", [f])):
            fast = torus_average(system, kind, obs, start, N)
            slow = torus_average_naive(system, kind, obs, start, N)
            if abs(fast - slow) > 1e-9 * max(1.0, abs(slow)):
                findings.append(f"trial {trial}: {kind} at N={N} differs from the literal loop")
    return SuiteResult("torus", trials, len(findings), tuple(findings))


class SweepResult(NamedTuple):
    checks: int              # logical (f1, f2, f3, N) combinations covered
    evaluations: int         # distinct restriction-class evaluations performed
    violations: Tuple[str, ...]
    max_ratio: Fraction      # max of (window average)^4 / (N^4 * S_N) over S_N > 0


def cubic_rows(cs: Sequence[int], ct: Sequence[int], g2: Sequence[int], F3: Sequence[Sequence[int]]) -> List[int]:
    """The S-residue terms cs[r] sum_s ct[s] g2[s] F3[r][s] of the cubic sum;
    pairing them with f1 on the S-cycle, sum_r g1[r] rows[r], gives N^2
    times the cubic average."""
    weights = [t * v for t, v in zip(ct, g2)]
    return [c * sum(map(mul, weights, row)) for c, row in zip(cs, F3)]


def exhaustive_bound_sweep(
    sys: FiniteMPS,
    n_values: Sequence[int],
    c: Fraction = Fraction(1),
    start: int = 0,
) -> SweepResult:
    """Check the window bound for EVERY triple of +-1 observables at `start`.

    The cubic average only reads f1 on the S-cycle of the start, f2 on its
    T-cycle, and f3 on the (i, j) orbit grid, so sweeping all sign patterns on
    those sections covers every +-1 observable triple; the returned `checks`
    counts the full triples represented.  All arithmetic is integer: the
    bound average^4 <= c * S_N clears to cubic_sum^4 * c.den <= c.num * N^4 * sn_sum,
    with S_N taken by the averaging kernels' `sn_sum` and the cubic sum by `cubic_rows`.
    """
    a, b, grid = sys.orbit_grid(start)
    flat = sorted({p for row in grid for p in row})
    slot = {p: k for k, p in enumerate(flat)}
    m = len(flat)
    grid_slot = [[slot[grid[r][s]] for s in range(b)] for r in range(a)]
    n_values = list(n_values)
    if not n_values or any(v < 1 for v in n_values):
        raise ValueError("window sizes must be positive")

    hidden = 3 * sys.n - (a + b + m)   # sign choices invisible to the averages
    checks = (2 ** (a + b + m)) * (2**hidden) * len(n_values)
    evaluations = 0
    violations: List[str] = []
    max_ratio = Fraction(0)

    signs1 = [[1 if (f1_bits >> r) & 1 else -1 for r in range(a)] for f1_bits in range(2**a)]
    for f3_bits in range(2**m):
        signs3 = [1 if (f3_bits >> k) & 1 else -1 for k in range(m)]
        F3 = [[signs3[grid_slot[r][s]] for s in range(b)] for r in range(a)]
        for N in n_values:
            cs, ct = window_counts(N, a), window_counts(N, b)
            sn = sn_sum(cs, ct, F3)
            rhs = c.numerator * N**4 * sn
            for f2_bits in range(2**b):
                signs2 = [1 if (f2_bits >> s) & 1 else -1 for s in range(b)]
                rows = cubic_rows(cs, ct, signs2, F3)
                for f1_bits, sign1 in enumerate(signs1):
                    evaluations += 1
                    total = sum(map(mul, sign1, rows))
                    lhs = total**4 * c.denominator
                    if lhs > rhs:
                        violations.append(
                            f"N={N} f1_bits={f1_bits} f2_bits={f2_bits} f3_bits={f3_bits} "
                            f"lhs={total**4} rhs={c} * {N**4 * sn}"
                        )
                    if sn:
                        ratio = Fraction(total**4, N**4 * sn)
                        if ratio > max_ratio:
                            max_ratio = ratio
                    elif total:
                        violations.append(
                            f"N={N} f3_bits={f3_bits}: window average {total}/N^2 nonzero with S_N = 0"
                        )
    return SweepResult(checks, evaluations, tuple(violations), max_ratio)


def find_bound_constant(sys: FiniteMPS, n_values: Sequence[int], start: int = 0) -> Tuple[Fraction, SweepResult]:
    """Smallest power-of-two constant C that clears the exhaustive sweep."""
    sweep = exhaustive_bound_sweep(sys, n_values, Fraction(1), start)
    c = Fraction(1)
    while c < sweep.max_ratio:
        c *= 2
    return c, sweep


def verify_bounds(seed: int, trials: int) -> SuiteResult:
    rng = Random(seed)
    findings: List[str] = []
    total = 0
    for label, sys in (("2x2", product_grid(2, 2)), ("2x3", product_grid(2, 3))):
        sweep = exhaustive_bound_sweep(sys, range(1, 9))
        total += sweep.evaluations
        if sweep.violations:
            findings.append(f"grid {label}: {len(sweep.violations)} violations, first: {sweep.violations[0]}")
        if sweep.max_ratio > 1:
            findings.append(f"grid {label}: max ratio {sweep.max_ratio} exceeds 1")
    for trial in range(trials):
        sys = random_system(rng, max_order=4)
        signs = [_sign_observable(rng, sys.n) for _ in range(3)]
        x = rng.randrange(sys.n)
        N = rng.randint(1, 16)
        total += 1
        chk = check_bound_average(sys, *signs, x, N)
        if not chk.holds:
            findings.append(f"trial {trial}: window bound fails at N={N}")
    return SuiteResult("bounds", total, len(findings), tuple(findings))


SUITES = {
    "core": verify_core,
    "finite": verify_finite,
    "joinings": verify_joinings,
    "extension": verify_extension,
    "cubes": verify_cubes,
    "products": verify_product_cubes,
    "averaging": verify_averaging,
    "decompose": verify_decomposition,
    "torus": verify_torus,
    "bounds": verify_bounds,
}


def run_suites(names: Sequence[str], seed: int, trials: int) -> List[SuiteResult]:
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite: {name!r} (choose from {', '.join(sorted(SUITES))})")
        results.append(SUITES[name](seed, trials))
    return results
