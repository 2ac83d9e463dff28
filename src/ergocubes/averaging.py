"""Exact window averages along the two-generator action.

Every average here is a finite sum over a box [0, N-1]^d of generator
exponents.  On a finite system the point S^i T^j x depends only on
(i mod a, j mod b), where a and b are the cycle lengths of S and T on the
orbit of x, so every kernel, Birkhoff averages along any S^i T^j included,
reads the orbit grid of x (`FiniteMPS.orbit_grid`); the number of window
indices in each residue class has a closed form, so each average collapses
to a residue-weighted sum whose cost does not grow with N.  The sums are
taken in integers: each observable is scaled once, on first use, to integer
numerators over one common denominator (`Observable.scaled`), and each
returned value is the one `Fraction` of the integer sum over the window
volume times those denominators.  The linear kinds, the cubic average and
the Birkhoff averages along S and along (S, T), weight one integer table by
the counts in i and in j (along S it is the grid's a x 1 column), so
`_linear_table` builds its prefix sums once per report and reads each window
from four of them with one formula; `run_average`, `cubic_average` and
`decompose_and_converge` all evaluate it.  The quadratic kinds
(`fourfold_average`, `windowed_sn`) keep a per-window kernel, which
`run_average` calls against x's component's joining integral, and the S_N sum
(`sn_sum`) is shared with the exhaustive bound sweep.  The decomposition
checks that its system is magic as `measurability_check`, a discrete W.
Point-mass box averages along arbitrary generators, `birkhoff_average` here
and the empirical engine in `cubes`, count hits with `box_hits`; every per-N
result, the decomposition's included, is a `ConvergenceReport` from
`schedule_report`, printed by one row formatter as CSV or text.
Literal-loop references (`*_naive`) are kept for equality testing.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .core import (
    DimensionError,
    Observable,
    PreconditionError,
    as_fraction,
    format_fraction,
)
from .finite import (
    FiniteMPS,
    GroupElement,
    is_ergodic,
    is_free,
    partition_s,
    partition_st,
    partition_t,
)
from .joinings import host_integral, host_measure, measurability_check

Value = Union[Fraction, float]


def _format_value(v: Optional[Value]) -> str:
    if v is None:
        return ""
    if isinstance(v, Fraction):
        return format_fraction(v)
    return repr(v)


@dataclass(frozen=True)
class ReportRow:
    N: int
    value: Value
    reference: Optional[Value]
    abs_error: Optional[Value]
    wall_time: float = 0.0


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-N values against an optional oracle; serializes to a fixed CSV schema.

    Wall times live only in the rows/metadata, never in the CSV, so identical
    configurations produce byte-identical files.
    """

    rows: Tuple[ReportRow, ...]
    metadata: Dict[str, object] = field(default_factory=dict, compare=False)

    def _table(self, sep: str) -> List[str]:
        """The header and one line per row, columns joined by `sep`."""
        cells = ((str(row.N), *map(_format_value, (row.value, row.reference, row.abs_error))) for row in self.rows)
        return [sep.join(line) for line in (("N", "value", "reference", "abs_error"), *cells)]

    def to_csv(self) -> str:
        return "\n".join(self._table(",")) + "\n"

    def to_text(self) -> str:
        metadata = [f"# {key}: {self.metadata[key]}" for key in sorted(self.metadata)]
        return "\n".join(metadata + self._table("  ")) + "\n"


AVERAGE_KINDS = {
    "cubic": 3,
    "fourfold": 4,
    "windowed_sn": 1,
    "birkhoff_1d": 1,
    "birkhoff_2d": 1,
}


def check_kind(kind: str, count: int):
    """Reject an unknown average kind or the wrong number of observables for it."""
    if kind not in AVERAGE_KINDS:
        raise ValueError(f"unknown average kind: {kind!r}")
    if count != AVERAGE_KINDS[kind]:
        raise DimensionError(f"kind {kind} needs {AVERAGE_KINDS[kind]} observables, got {count}")


def check_schedule(schedule: Sequence[int]):
    """Reject a schedule that is empty, not strictly increasing, or has a
    window size below 1."""
    if not schedule:
        raise ValueError("schedule must be a nonempty list of positive window sizes")
    if any(n < 1 for n in schedule):
        raise ValueError("schedule entries must be positive window sizes")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")


@dataclass(frozen=True)
class AverageSpec:
    kind: str
    observables: Tuple[Observable, ...]
    start: int
    schedule: Tuple[int, ...]

    def __post_init__(self):
        check_kind(self.kind, len(self.observables))
        check_schedule(self.schedule)


def window_counts(N: int, period: int) -> List[int]:
    """counts[r] = #{ i in [0, N) : i = r mod period }."""
    return [(N - 1 - r) // period + 1 if r < N else 0 for r in range(period)]


def _check_average_args(sys: FiniteMPS, observables: Sequence[Observable], x: int, N: int):
    sys._check_point(x)
    if N < 1:
        raise ValueError(f"window size must be positive, got {N}")
    for f in observables:
        if f.n != sys.n:
            raise DimensionError(f"observable on {f.n} points vs system on {sys.n}")


def sn_sum(cs: Sequence[int], ct: Sequence[int], F: Sequence[Sequence[int]]) -> int:
    """N^4 S_N over a grid of integer values: sum_{r,r'} cs[r] cs[r'] corr(r, r')^2
    with corr(r, r') = sum_s ct[s] F[r][s] F[r'][s].  corr is symmetric, so
    each pair r < r' is taken once and doubled."""
    live = [(c, row, [t * v for t, v in zip(ct, row)]) for c, row in zip(cs, F) if c]
    total = 0
    for k, (c, row, weighted) in enumerate(live):
        total += c * c * sum(map(mul, weighted, row)) ** 2
        total += 2 * c * sum(c2 * sum(map(mul, weighted, row2)) ** 2 for c2, row2, _ in live[k + 1:])
    return total


def _linear_table(sys: FiniteMPS, kind: str, observables: Sequence[Observable], x: int) -> Callable[[int], Fraction]:
    """The window average of a linear kind (cubic, birkhoff_1d, birkhoff_2d)
    as a function of N, from one table built per report.

    Each is (1/N^2) sum_{r,s} cs[r] ct[s] K[r][s] over an a x b table, with
    integer K[r][s] = f1(S^r x) f2(T^s x) f3(S^r T^s x) for cubic and
    f(S^r T^s x) for birkhoff_2d, on the orbit grid.  birkhoff_1d is the
    a x 1 column K[r][0] = f(S^r x), b = 1: its j-sum is N times each value,
    so the same formula gives (1/N) sum_i f(S^i x).  With (q, rho) =
    divmod(N, a), cs[r] = q + [r < rho], and likewise ct in b, so from the
    prefix sums P[m][n] = sum_{r<m, s<n} K[r][s] the window total is
    q_a q_b P[a][b] + q_a P[a][rho_b] + q_b P[rho_a][b] + P[rho_a][rho_b]:
    four lookups and one `Fraction` per window, whatever N.
    """
    a, b, grid = sys.orbit_grid(x)
    scaled = [f.scaled for f in observables]
    den = math.prod(d for _, d in scaled)
    if kind == "cubic":
        (u1, _), (u2, _), (u3, _) = scaled
        g2 = [u2[p] for p in grid[0]]
        K = [[u1[row[0]] * v * u3[p] for v, p in zip(g2, row)] for row in grid]
    else:
        ((u, _),) = scaled
        if kind == "birkhoff_1d":
            b, grid = 1, [row[:1] for row in grid]
        K = [[u[p] for p in row] for row in grid]
    rows = (accumulate(row, initial=0) for row in K)
    P = list(accumulate(rows, lambda above, row: list(map(add, above, row)), initial=[0] * (b + 1)))

    def window(N: int) -> Fraction:
        (qa, ra), (qb, rb) = divmod(N, a), divmod(N, b)
        full, part = P[a], P[ra]
        return Fraction(qa * qb * full[b] + qa * full[rb] + qb * part[b] + part[rb], N * N * den)

    return window


def cubic_average(sys: FiniteMPS, f1: Observable, f2: Observable, f3: Observable, x: int, N: int) -> Fraction:
    """(1/N^2) sum_{i,j<N} f1(S^i x) f2(T^j x) f3(S^i T^j x), exactly."""
    _check_average_args(sys, (f1, f2, f3), x, N)
    return _linear_table(sys, "cubic", (f1, f2, f3), x)(N)


def fourfold_average(
    sys: FiniteMPS, f0: Observable, f1: Observable, f2: Observable, f3: Observable, x: int, N: int
) -> Fraction:
    """(1/N^4) sum over i,j,k,p in [0,N)^4 of
    f0(S^i T^j x) f1(S^{i+k} T^j x) f2(S^i T^{j+p} x) f3(S^{i+k} T^{j+p} x).

    The residue pair (i mod a, (i+k) mod a) occurs cs[r] * cs[(r'-r) mod a]
    times because k itself ranges over a full window; likewise in j, p.
    With (q, rho) = divmod(N, b), window_counts(N, b)[s] = q + [s < rho], so
    the inner sum over s' of ct[(s'-s) mod b] R[s'] is q sum(R) plus the sum
    of R over the rho cells from s on, one window of a prefix sum: each
    window costs O(a^2 b) integer products.
    """
    _check_average_args(sys, (f0, f1, f2, f3), x, N)
    a, b, grid = sys.orbit_grid(x)
    cs, ct = window_counts(N, a), window_counts(N, b)
    q, rho = divmod(N, b)
    scaled = [f.scaled for f in (f0, f1, f2, f3)]
    F0, F1, F2, F3 = ([[u[p] for p in row] for row in grid] for u, _ in scaled)
    total = 0
    for r in range(a):
        if not cs[r]:
            continue
        for r2 in range(a):
            shift = cs[(r2 - r) % a]
            if not shift:
                continue
            left = [t * u * v for t, u, v in zip(ct, F0[r], F1[r2])]
            right = list(map(mul, F2[r], F3[r2]))
            prefix = list(accumulate(right + right[:rho], initial=0))
            full = q * prefix[b]
            inner = sum(w * (full + hi - lo) for w, lo, hi in zip(left, prefix, prefix[rho:]) if w)
            total += cs[r] * shift * inner
    return Fraction(total, N**4 * math.prod(d for _, d in scaled))


def fourfold_average_naive(
    sys: FiniteMPS, f0: Observable, f1: Observable, f2: Observable, f3: Observable, x: int, N: int
) -> Fraction:
    """Literal quadruple loop; reference implementation for equality tests."""
    _check_average_args(sys, (f0, f1, f2, f3), x, N)
    a, b, grid = sys.orbit_grid(x)
    total = Fraction(0)
    for i in range(N):
        for j in range(N):
            for k in range(N):
                for p in range(N):
                    total += (
                        f0.values[grid[i % a][j % b]]
                        * f1.values[grid[(i + k) % a][j % b]]
                        * f2.values[grid[i % a][(j + p) % b]]
                        * f3.values[grid[(i + k) % a][(j + p) % b]]
                    )
    return total / N**4


def windowed_sn(sys: FiniteMPS, f: Observable, x: int, N: int) -> Fraction:
    """S_N(f, x): the A_N-window average |(1/N^4) sum f f f f|.

    Over A_N = {i, j in [0,N), k in [-i, N-1-i], p in [-j, N-1-j]} the sums
    i+k and j+p range over full windows independently, so the average equals
    (1/N^4) sum_{i,i'} (sum_j f(S^i T^j x) f(S^{i'} T^j x))^2 -- a sum of
    squares, hence nonnegative before the absolute value.
    """
    _check_average_args(sys, (f,), x, N)
    a, b, grid = sys.orbit_grid(x)
    u, d = f.scaled
    F = [[u[p] for p in row] for row in grid]
    return Fraction(sn_sum(window_counts(N, a), window_counts(N, b), F), N**4 * d**4)


def windowed_sn_naive(sys: FiniteMPS, f: Observable, x: int, N: int) -> Fraction:
    """Literal A_N loop; reference implementation for equality tests."""
    _check_average_args(sys, (f,), x, N)
    a, b, grid = sys.orbit_grid(x)
    total = Fraction(0)
    for i in range(N):
        for j in range(N):
            for k in range(-i, N - i):
                for p in range(-j, N - j):
                    total += (
                        f.values[grid[i % a][j % b]]
                        * f.values[grid[(i + k) % a][j % b]]
                        * f.values[grid[i % a][(j + p) % b]]
                        * f.values[grid[(i + k) % a][(j + p) % b]]
                    )
    return abs(total) / N**4


def box_hits(step: Callable[[int, Hashable], Hashable], start: Hashable, periods: Sequence[int], N: int) -> Dict[Hashable, int]:
    """hits[p] = #{(i_1, ..., i_d) in [0, N)^d : g_1^{i_1} ... g_d^{i_d} start = p},
    where step(t, p) = g_t p and g_t^{periods[t]} fixes every point the box
    reaches.  One generator at a time, each point walks its first
    min(N, periods[t]) images, each taken with its window count."""
    hits = {start: 1}
    for t, period in enumerate(periods):
        counts = window_counts(N, period)[:N]
        moved: Dict[Hashable, int] = {}
        for p, w in hits.items():
            for c in counts:
                moved[p] = moved.get(p, 0) + w * c
                p = step(t, p)
        hits = moved
    return hits


def birkhoff_average(
    sys: FiniteMPS, f: Observable, x: int, gens: Sequence[GroupElement], N: int
) -> Fraction:
    """d-dimensional Birkhoff average over the box [0, N-1]^len(gens).

    g = S^i T^j moves orbit-grid cell (r, s) to ((r + i) mod a, (s + j) mod b),
    with period lcm(a / gcd(i, a), b / gcd(j, b)) in its exponent."""
    _check_average_args(sys, (f,), x, N)
    if not gens:
        raise ValueError("need at least one generator")
    a, b, grid = sys.orbit_grid(x)
    periods = [math.lcm(a // math.gcd(g.i, a), b // math.gcd(g.j, b)) for g in gens]
    hits = box_hits(lambda t, cell: ((cell[0] + gens[t].i) % a, (cell[1] + gens[t].j) % b), (0, 0), periods, N)
    nums, d = f.scaled
    total = sum(w * nums[grid[r][s]] for (r, s), w in hits.items())
    return Fraction(total, N ** len(gens) * d)


class BoundCheck(NamedTuple):
    lhs: Fraction   # fourth power of the cubic average
    rhs: Fraction   # c * S_N(f3, x)
    holds: bool


def check_bound_average(
    sys: FiniteMPS,
    f1: Observable,
    f2: Observable,
    f3: Observable,
    x: int,
    N: int,
    c: Fraction = Fraction(1),
) -> BoundCheck:
    """Check (cubic average)^4 <= c * S_N(f3, x) for sup-norm-1 observables.

    The inequality with c = 1 is what two Cauchy-Schwarz passes give; smaller
    c is accepted so adversarial verification runs can demonstrate failures.
    """
    for name, f in (("f1", f1), ("f2", f2), ("f3", f3)):
        if f.sup_norm > 1:
            raise PreconditionError(f"{name} has sup norm {f.sup_norm} > 1")
    lhs = cubic_average(sys, f1, f2, f3, x, N) ** 4
    rhs = c * windowed_sn(sys, f3, x, N)
    return BoundCheck(lhs, rhs, lhs <= rhs)


class TelescopingCheck(NamedTuple):
    identity: bool              # product difference equals the telescoping sum
    bound: Optional[bool]       # |difference| <= sum |a_i - b_i| (when all |.| <= 1)


def check_telescoping(a: Sequence, b: Sequence) -> TelescopingCheck:
    """Verify prod a - prod b = sum_i a_1..a_{i-1} (a_i - b_i) b_{i+1}..b_n."""
    a = [as_fraction(v) for v in a]
    b = [as_fraction(v) for v in b]
    if len(a) != len(b):
        raise DimensionError(f"sequence lengths differ: {len(a)} != {len(b)}")
    lhs = math.prod(a) - math.prod(b)
    rhs = sum(math.prod(a[:i]) * (a[i] - b[i]) * math.prod(b[i + 1:]) for i in range(len(a)))
    identity = lhs == rhs
    bound = None
    if all(abs(v) <= 1 for v in a) and all(abs(v) <= 1 for v in b):
        bound = abs(lhs) <= sum(abs(u - v) for u, v in zip(a, b))
    return TelescopingCheck(identity, bound)


def decompose_and_converge(
    sys: FiniteMPS, f1: Observable, f2: Observable, f3: Observable, x: int, schedule: Sequence[int]
) -> ConvergenceReport:
    """The cubic average over the schedule against its limit, the W-part of f3.

    Requires a magic, ergodic, free system.  The box seminorm is a norm (the
    argument in `joinings`), so magic means exactly that W is discrete, which
    `measurability_check` tests.  There E(f3 | W) = f3 and the mean-zero
    part is 0: each row's value is the cubic average, and its reference the
    W-part formula over points: f3(p) times the f1-sum over the S-cycle of x
    within the T-orbit of p, times the f2-sum over the T-cycle of x within
    the S-orbit of p, summed over p and divided by a b.
    """
    check_schedule(schedule)
    _check_average_args(sys, (f1, f2, f3), x, max(schedule))
    failures = []
    if not measurability_check(sys):
        failures.append("not magic")
    if not is_ergodic(sys):
        failures.append("not ergodic")
    if not is_free(sys).free:
        failures.append("not free")
    if failures:
        raise PreconditionError("decompose_and_converge requires a magic ergodic free system; this one is " + ", ".join(failures))

    s_orbit, t_orbit = partition_s(sys).block_of, partition_t(sys).block_of
    a, b, grid = sys.orbit_grid(x)
    (u1, d1), (u2, d2), (u3, d3) = f1.scaled, f2.scaled, f3.scaled
    along_s, along_t = Counter(), Counter()
    for row in grid:
        along_s[t_orbit[row[0]]] += u1[row[0]]
    for p in grid[0]:
        along_t[s_orbit[p]] += u2[p]
    total = sum(u3[p] * along_s[t_orbit[p]] * along_t[s_orbit[p]] for p in range(sys.n))
    limit = Fraction(total, a * b * d1 * d2 * d3)
    return schedule_report(schedule, _linear_table(sys, "cubic", (f1, f2, f3), x), limit, {"kind": "cubic", "start": x, "n": sys.n})


def schedule_report(
    schedule: Sequence[int], value: Callable[[int], Value], reference: Optional[Value], metadata: Dict[str, object]
) -> ConvergenceReport:
    """One row per window size N, in schedule order: value(N), timed alone,
    against a fixed reference (no abs_error when there is none).  An exact
    row's abs_error is one `Fraction(|p s - r q|, q s)` from v = p/q and
    reference = r/s."""
    rows = []
    for N in schedule:
        begin = time.perf_counter()
        v = value(N)
        elapsed = time.perf_counter() - begin
        rows.append(ReportRow(N, v, reference, _abs_error(v, reference), elapsed))
    return ConvergenceReport(rows=tuple(rows), metadata=metadata)


def _abs_error(v: Value, reference: Optional[Value]) -> Optional[Value]:
    if reference is None:
        return None
    if isinstance(v, Fraction) and isinstance(reference, Fraction):
        q, s = v.denominator, reference.denominator
        return Fraction(abs(v.numerator * s - reference.numerator * q), q * s)
    return abs(v - reference)


def run_average(sys: FiniteMPS, spec: AverageSpec) -> ConvergenceReport:
    """Drive one average kind over a schedule against its exact limit where
    one exists: for the quadratic kinds, the joining integral (|||f|||^4 for
    S_N) of x's ergodic component, mu_{S,T} on J^4 over w(J), J the joint
    orbit of x; for the linear kinds, read from one `_linear_table`, the value
    at N = lcm(a, b), which covers every period.  The cubic kind has none."""
    _check_average_args(sys, spec.observables, spec.start, spec.schedule[0])
    fs, x = spec.observables, spec.start
    if spec.kind in ("fourfold", "windowed_sn"):
        kernel = fourfold_average if spec.kind == "fourfold" else windowed_sn
        joint = partition_st(sys).block_of  # J has |J| points of weight w(x)
        value = lambda N: kernel(sys, *fs, x, N)
        ref = host_integral(host_measure(sys), fs * (4 // len(fs)), joint[x]) / (joint.count(joint[x]) * sys.weights[x])
    else:
        value = _linear_table(sys, spec.kind, fs, x)
        ref = None if spec.kind == "cubic" else value(math.lcm(*sys.orbit_grid(x)[:2]))
    return schedule_report(spec.schedule, value, ref, {"kind": spec.kind, "start": x, "n": sys.n})
