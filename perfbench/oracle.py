"""Independent references that the benchmark checks program outputs against.

Nothing here calls into ergocubes: every value is recomputed from the
generated inputs (permutation lists, weights, observables, trigonometric
coefficients) by a different route than the program takes.

* Finite window averages use integer arithmetic over one common denominator
  and the residue-count identity #{i < N : i = r mod p} = N//p + [r < N % p].
* The four-fold integral is factored over (T x T)-orbits of pairs, so it never
  enumerates quadruples.
* Torus averages are closed forms in geometric sums, evaluated with mpmath at
  40 significant digits from exactly reduced phases.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

# Torus floats are compared the way the torus tests compare the fast kernels
# with the literal loops.
TORUS_REL_TOL = 1e-9
TORUS_ABS_TOL = 1e-9


def fmt(value: Fraction) -> str:
    """p/q with the denominator always written, as the program prints it."""
    return f"{value.numerator}/{value.denominator}"


def cycle_length(perm: Sequence[int], x: int) -> int:
    length, y = 1, perm[x]
    while y != x:
        y = perm[y]
        length += 1
    return length


def orbit_grid(S: Sequence[int], T: Sequence[int], x: int) -> List[List[int]]:
    """grid[r][s] = S^r T^s x for r, s below the cycle lengths at x."""
    row = [x]
    for _ in range(cycle_length(T, x) - 1):
        row.append(T[row[-1]])
    grid = [row]
    for _ in range(cycle_length(S, x) - 1):
        grid.append([S[p] for p in grid[-1]])
    return grid


def residue_counts(N: int, period: int) -> List[int]:
    q, rem = divmod(N, period)
    return [q + (1 if r < rem else 0) for r in range(period)]


def _scaled(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    denom = 1
    for v in values:
        denom = math.lcm(denom, v.denominator)
    return [int(v * denom) for v in values], denom


# -- finite averages ---------------------------------------------------------


def finite_average(kind: str, S, T, observables: Sequence[Sequence[Fraction]], x: int, N: int) -> Fraction:
    """One window average of `kind` at size N, exactly."""
    grid = orbit_grid(S, T, x)
    a, b = len(grid), len(grid[0])
    scaled = [_scaled(f) for f in observables]
    F = [[[ints[p] for p in row] for row in grid] for ints, _ in scaled]
    den = math.prod(d for _, d in scaled)
    cs, ct = residue_counts(N, a), residue_counts(N, b)
    if kind == "birkhoff_1d":
        total = sum(cs[r] * F[0][r][0] for r in range(a))
        return Fraction(total, N * den)
    if kind == "birkhoff_2d":
        total = sum(cs[r] * ct[s] * F[0][r][s] for r in range(a) for s in range(b))
        return Fraction(total, N * N * den)
    if kind == "cubic":
        f1, f2, f3 = F
        total = sum(
            cs[r] * ct[s] * f1[r][0] * f2[0][s] * f3[r][s] for r in range(a) for s in range(b)
        )
        return Fraction(total, N**2 * den)
    if kind == "windowed_sn":
        (f,) = F
        total = 0
        for r in range(a):
            for r2 in range(a):
                corr = sum(ct[s] * f[r][s] * f[r2][s] for s in range(b))
                total += cs[r] * cs[r2] * corr * corr
        return Fraction(abs(total), N**4 * den**4)
    if kind == "fourfold":
        # i and i+k: residues (r, r2) occur cs[r] * cs[(r2 - r) % a] times.
        f0, f1, f2, f3 = F
        pair_s = [[cs[r] * cs[(r2 - r) % a] for r2 in range(a)] for r in range(a)]
        pair_t = [[ct[s] * ct[(s2 - s) % b] for s2 in range(b)] for s in range(b)]
        total = 0
        for r in range(a):
            for r2 in range(a):
                if not pair_s[r][r2]:
                    continue
                left = [f0[r][s] * f1[r2][s] for s in range(b)]
                right = [f2[r][s2] * f3[r2][s2] for s2 in range(b)]
                inner = sum(
                    left[s] * sum(pair_t[s][s2] * right[s2] for s2 in range(b))
                    for s in range(b)
                    if left[s]
                )
                total += pair_s[r][r2] * inner
        return Fraction(total, N**4 * den)
    raise ValueError(f"unknown kind {kind!r}")


def host_integral(S, T, weights: Sequence[Fraction], observables: Sequence[Sequence[Fraction]]) -> Fraction:
    """Integral of f0 x f1 x f2 x f3 against the four-fold joining mu_{S,T}.

    mu_S(x0, x1) = w(x0) w(x1) / w(B) on pairs in one S-orbit B, and mu_{S,T}
    is the relative square of mu_S over (T x T)-orbits C of those pairs, so
    the integral is sum_C (sum_C mu_S f0 f1)(sum_C mu_S f2 f3) / mu_S(C).
    """
    n = len(S)
    orbit_of = [-1] * n
    orbits: List[List[int]] = []
    for x in range(n):
        if orbit_of[x] < 0:
            orbit, y = [], x
            while orbit_of[y] < 0:
                orbit_of[y] = len(orbits)
                orbit.append(y)
                y = S[y]
            orbits.append(orbit)
    orbit_mass = [sum((weights[y] for y in orbit), Fraction(0)) for orbit in orbits]
    f0, f1, f2, f3 = observables
    seen = set()
    total = Fraction(0)
    for orbit, mass in zip(orbits, orbit_mass):
        for p in orbit:
            for q in orbit:
                if (p, q) in seen:
                    continue
                c_mass = left = right = Fraction(0)
                u, v = p, q
                while (u, v) not in seen:
                    seen.add((u, v))
                    w = weights[u] * weights[v] / mass
                    c_mass += w
                    left += w * f0[u] * f1[v]
                    right += w * f2[u] * f3[v]
                    u, v = T[u], T[v]
                total += left * right / c_mass
    return total


def finite_reference(kind: str, S, T, weights, observables, x: int) -> Optional[Fraction]:
    """The reference column the program reports for `kind` (None for cubic)."""
    if kind == "fourfold":
        return host_integral(S, T, weights, observables)
    if kind == "windowed_sn":
        return host_integral(S, T, weights, list(observables) * 4)
    if kind in ("birkhoff_1d", "birkhoff_2d"):
        grid = orbit_grid(S, T, x)
        cells = [grid[r][0] for r in range(len(grid))] if kind == "birkhoff_1d" else [p for row in grid for p in row]
        return sum((observables[0][p] for p in cells), Fraction(0)) / len(cells)
    return None


def finite_csv(kind: str, S, T, weights, observables, x: int, schedule: Sequence[int]) -> str:
    """The exact CSV `ergocubes average` must print for a finite system."""
    ref = finite_reference(kind, S, T, weights, observables, x)
    lines = ["N,value,reference,abs_error"]
    for N in schedule:
        value = finite_average(kind, S, T, observables, x, N)
        if ref is None:
            lines.append(f"{N},{fmt(value)},,")
        else:
            lines.append(f"{N},{fmt(value)},{fmt(ref)},{fmt(abs(value - ref))}")
    return "\n".join(lines) + "\n"


# -- torus averages ----------------------------------------------------------


def _mpmath():
    # Imported on first use, so that generating a workload's inputs (timed
    # as set-up) does not load it.
    import mpmath

    mpmath.mp.dps = 40
    return mpmath


def _e(theta: Fraction):
    """exp(2 pi i theta) with theta reduced mod 1 exactly first."""
    mpmath = _mpmath()
    t = theta % 1
    return mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator)


class TorusOracle:
    """Closed-form torus averages for one rotation pair (alpha, beta)."""

    def __init__(self, alpha: Fraction, beta: Fraction):
        self.alpha, self.beta = alpha, beta
        self._geo: Dict[Tuple[Fraction, int], object] = {}

    def geometric(self, theta: Fraction, N: int):
        """sum_{t < N} e(t theta)."""
        key = (theta % 1, N)
        if key not in self._geo:
            t = key[0]
            self._geo[key] = _mpmath().mpf(N) if t == 0 else (_e(N * t) - 1) / (_e(t) - 1)
        return self._geo[key]

    def average(self, kind: str, polys: Sequence[Dict[int, complex]], x: Fraction, N: int) -> float:
        """The box average the program evaluates, for polys given as {n: c_n}."""
        mpmath = _mpmath()
        A, B, G = self.alpha, self.beta, self.geometric
        c = [{n: mpmath.mpc(v.real, v.imag) for n, v in p.items()} for p in polys]
        total = mpmath.mpc(0)
        if kind == "birkhoff_1d":
            for n, cn in c[0].items():
                total += cn * _e(n * x) * G(n * A, N)
            return float((total / N).real)
        if kind == "birkhoff_2d":
            for n, cn in c[0].items():
                total += cn * _e(n * x) * G(n * A, N) * G(n * B, N)
            return float((total / N**2).real)
        if kind == "cubic":
            # f1(x + i a) f2(x + j b) f3(x + i a + j b)
            for n1, c1 in c[0].items():
                for n2, c2 in c[1].items():
                    for n3, c3 in c[2].items():
                        total += c1 * c2 * c3 * _e((n1 + n2 + n3) * x) * G((n1 + n3) * A, N) * G((n2 + n3) * B, N)
            return float((total / N**2).real)
        quad = c * 4 if kind == "windowed_sn" else c
        for n0, c0 in quad[0].items():
            for n1, c1 in quad[1].items():
                for n2, c2 in quad[2].items():
                    for n3, c3 in quad[3].items():
                        m = n0 + n1 + n2 + n3
                        if kind == "windowed_sn":
                            # f(u_i + v_j) f(u_i' + v_j) f(u_i + v_j') f(u_i' + v_j')
                            geo = G((n0 + n2) * A, N) * G((n1 + n3) * A, N) * G((n0 + n1) * B, N) * G((n2 + n3) * B, N)
                        else:
                            # i, k over S; j, p over T, as in the four-fold box
                            geo = G(m * A, N) * G((n1 + n3) * A, N) * G(m * B, N) * G((n2 + n3) * B, N)
                        total += c0 * c1 * c2 * c3 * _e(m * x) * geo
        value = float((total / mpmath.mpf(N) ** 4).real)
        return abs(value) if kind == "windowed_sn" else value

    @staticmethod
    def limit(kind: str, polys: Sequence[Dict[int, complex]], x: Fraction) -> float:
        """The analytic limit the program reports as the reference column."""
        mpmath = _mpmath()
        c = [{n: mpmath.mpc(v.real, v.imag) for n, v in p.items()} for p in polys]
        zero = mpmath.mpc(0)
        if kind == "cubic":
            total = sum((c1 * c[1].get(n, zero) * c[2].get(-n, zero) * _e(n * x) for n, c1 in c[0].items()), zero)
            return float(total.real)
        if kind in ("fourfold", "windowed_sn"):
            f = c * 4 if kind == "windowed_sn" else c
            total = sum(
                (c0 * f[1].get(-n, zero) * f[2].get(-n, zero) * f[3].get(n, zero) for n, c0 in f[0].items()),
                zero,
            )
            return abs(float(total.real)) if kind == "windowed_sn" else float(total.real)
        return float(c[0].get(0, zero).real)


def torus_close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=TORUS_REL_TOL, abs_tol=TORUS_ABS_TOL)
