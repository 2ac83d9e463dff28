"""Circle-rotation systems, trigonometric observables, and their limits."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import mpmath
import pytest

import ergocubes
from ergocubes import torus
from ergocubes.averaging import AVERAGE_KINDS
from ergocubes.core import DimensionError
from ergocubes.torus import (
    TorusSystem,
    TrigPoly,
    sqrt23_system,
    sqrt_fraction,
    torus_average,
    torus_average_naive,
    torus_report,
)
from oracles import fourier_limit, fourier_window

F = Fraction


def random_poly(rng, max_freq=3, scale=1.0):
    coeffs = TrigPoly.constant(rng.uniform(-scale, scale))
    for n in range(1, max_freq + 1):
        coeffs = coeffs + TrigPoly.cosine(n, rng.uniform(-scale, scale))
        coeffs = coeffs + TrigPoly.sine(n, rng.uniform(-scale, scale))
    return coeffs


class TestSqrtFraction:
    def test_precision_bracket(self):
        a = sqrt_fraction(2)
        assert a * a <= 2
        assert (a + F(1, 2**128)) ** 2 > 2
        assert 2 - a * a < F(1, 2**126)
        b = sqrt_fraction(3)
        assert b * b <= 3 < (b + F(1, 2**128)) ** 2

    def test_exact_squares(self):
        assert sqrt_fraction(0) == 0
        assert sqrt_fraction(4) == 2
        assert sqrt_fraction(9, bits=16) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="square root of negative"):
            sqrt_fraction(-1)


class TestTorusSystem:
    def test_stock_system(self):
        sys = sqrt23_system()
        assert sys.generic
        assert F(41, 100) < sys.alpha < F(42, 100)
        assert F(73, 100) < sys.beta < F(74, 100)

    def test_rotation_amounts_reduced_mod_one(self):
        sys = TorusSystem(F(5, 4), F(-1, 3))
        assert sys.alpha == F(1, 4)
        assert sys.beta == F(2, 3)
        assert not sys.generic


class TestTrigPoly:
    def test_requires_conjugate_symmetry(self):
        with pytest.raises(ValueError, match="not conjugate-symmetric at frequency 1"):
            TrigPoly({1: 0.5})
        with pytest.raises(ValueError, match="not conjugate-symmetric"):
            TrigPoly({1: 0.5, -1: 0.5j})

    def test_point_values(self):
        cos1 = TrigPoly.cosine(1)
        assert abs(cos1.value(0.0) - 1.0) < 1e-12
        assert abs(cos1.value(0.5) + 1.0) < 1e-12
        assert abs(cos1.value(0.25)) < 1e-12
        sin1 = TrigPoly.sine(1)
        assert abs(sin1.value(0.25) - 1.0) < 1e-12
        assert TrigPoly.sine(0).value(0.3) == 0.0
        assert TrigPoly.constant(2.5).value(0.9) == 2.5

    def test_rejects_non_finite_coefficients(self):
        nan, inf = float("nan"), float("inf")
        for coeffs in ({0: nan}, {0: -inf}, {1: complex(0, inf), -1: complex(0, -inf)}, {2: nan, -2: nan}):
            with pytest.raises(ValueError, match="not finite"):
                TrigPoly(coeffs)
        with pytest.raises(ValueError, match="not finite"):
            TrigPoly.constant(1e308) + TrigPoly.constant(1e308)

    def test_algebra(self):
        cos1, sin1 = TrigPoly.cosine(1), TrigPoly.sine(1)
        both = cos1 + sin1
        assert abs(both.value(0.1) - (cos1.value(0.1) + sin1.value(0.1))) < 1e-12
        scaled = cos1 * 3.0
        assert abs(scaled.value(0.2) - 3.0 * cos1.value(0.2)) < 1e-12
        assert abs((2.0 * sin1).value(0.2) - 2.0 * sin1.value(0.2)) < 1e-12
        # cos^2 = 1/2 + cos(2x)/2
        square = cos1 * cos1
        assert square.coeff(0) == 0.5
        assert square.coeff(2) == 0.25
        assert square.coeff(-2) == 0.25
        assert square.degree == 2

    def test_degree_and_sup_bound(self):
        poly = TrigPoly.cosine(3, 2.0) + TrigPoly.sine(1, 1.0)
        assert poly.degree == 3
        assert abs(poly.sup_bound - 3.0) < 1e-12
        assert TrigPoly.constant(-4.0).sup_bound == 4.0

    def test_sup_bound_past_float_range_is_inf(self):
        assert TrigPoly({1: 1e308, -1: 1e308}).sup_bound == math.inf
        assert TrigPoly({1: complex(1e308, 1e308), -1: complex(1e308, -1e308)}).sup_bound == math.inf

    def test_zero_coefficients_dropped(self):
        poly = TrigPoly.cosine(1) + TrigPoly.cosine(1, -1.0)
        assert poly.coeffs == {}
        assert poly.degree == 0


def reported_limit(kind, observables, x, system=None):
    """The reference column of a torus report: the frequency table at N -> infinity."""
    return torus_report(system or sqrt23_system(), kind, observables, x, [1]).rows[0].reference


class TestAnalyticOracles:
    def test_cosine_host_integral(self):
        cos1 = TrigPoly.cosine(1)
        assert abs(reported_limit("fourfold", [cos1] * 4, 0) - 0.125) < 1e-12

    def test_sine_host_integral(self):
        sin1 = TrigPoly.sine(1)
        assert abs(reported_limit("fourfold", [sin1] * 4, 0) - 0.125) < 1e-12

    def test_cosine_cubic_limit(self):
        cos1 = TrigPoly.cosine(1)
        assert abs(reported_limit("cubic", [cos1] * 3, 0) - 0.25) < 1e-12
        assert abs(reported_limit("cubic", [cos1] * 3, F(1, 2)) + 0.25) < 1e-12

    def test_sine_cubic_limit_is_quarter_sine(self):
        sin1 = TrigPoly.sine(1)
        for x in (0.0, 0.1, 0.3, 0.7):
            expected = math.sin(2 * math.pi * x) / 4
            assert abs(reported_limit("cubic", [sin1] * 3, F(x).limit_denominator(10**6)) - expected) < 1e-9

    def test_frequencies_past_float_range_at_the_denominator_give_a_flat_report(self):
        # 10**320 is a multiple of the approximants' denominator 2**128, so
        # cos(2 pi 10**320 t) is invariant under both stored rotations: every
        # window and the limit are f(1/3)**3 = (-1/2)**3
        huge = TrigPoly.cosine(10**320)
        report = torus_report(sqrt23_system(), "cubic", [huge] * 3, F(1, 3), [1, 2, 2**60])
        for row in report.rows:
            assert row.value == row.reference and row.abs_error == 0.0, row.N
            assert abs(row.reference + 0.125) <= 2.0**-48, row.N
        # frequencies that are not multiples contribute nothing to the limit
        cos1 = TrigPoly.cosine(1)
        assert reported_limit("cubic", [huge + cos1, cos1, cos1], 0) == reported_limit("cubic", [cos1] * 3, 0)

    def test_a_phase_past_float_range_at_the_denominator_gives_a_flat_report(self):
        # n = (largest float) // 2 = 2**1023 - 2**970 is a float, 2 pi n x is
        # not, and n is a multiple of 2**128: f = 1 + cos(2 pi n t) has
        # f(0) = 2 and f(1/3) = 1/2, since n = 1 mod 3
        huge = TrigPoly.cosine(int(sys.float_info.max) // 2) + TrigPoly.constant(1.0)
        for x, expected in ((F(1, 3), 0.125), (0, 8.0)):
            report = torus_report(sqrt23_system(), "cubic", [huge] * 3, x, [1, 2, 2**60])
            for row in report.rows:
                assert row.value == row.reference and row.abs_error == 0.0, (x, row.N)
                assert abs(row.reference - expected) <= 2.0**-48 * huge.sup_bound**3, (x, row.N)


def shared_frequency_polys(rng, count, max_freq, scale):
    """`count` polynomials on one shared set of up to three frequencies in
    1..max_freq (none when max_freq is 0), so the frequencies that the closed
    forms pair up are present in every factor."""
    freqs = sorted({rng.randint(1, max_freq) for _ in range(3)}) if max_freq else []
    polys = []
    for _ in range(count):
        poly = TrigPoly.constant(rng.uniform(-scale, scale))
        for n in freqs:
            poly = poly + TrigPoly.cosine(n, rng.uniform(-scale, scale)) + TrigPoly.sine(n, rng.uniform(-scale, scale))
        polys.append(poly)
    return polys


class TestReferenceErrorBounds:
    """The stated bound of every report's reference, 2**-48 times the product
    of the observables' sup bounds (f.sup_bound ** 4 for windowed_sn), for
    every degree, against a 60-digit evaluation of the Fourier closed forms
    (`oracles.fourier_limit`).  Frequencies reach 2**60; every frequency
    combination stays below the approximants' denominator 2**128, so the
    limit at the stored rotation amounts is the closed form."""

    SYSTEMS = (sqrt23_system(), TorusSystem(sqrt_fraction(5) - 2, sqrt_fraction(7) - 2, generic=True))
    SHAPES = [(max_freq, scale) for max_freq in (0, 3, 2**12, 2**60) for scale in (1.0, 1e-3, 1e5)]

    @pytest.mark.parametrize("kind", list(AVERAGE_KINDS))
    def test_reference_within_the_degree_free_bound(self, kind):
        rng = Random(461)
        for system in self.SYSTEMS:
            for max_freq, scale in self.SHAPES:
                obs = shared_frequency_polys(rng, AVERAGE_KINDS[kind], max_freq, scale)
                bound = 2.0**-48 * math.prod(f.sup_bound for f in obs * (4 if kind == "windowed_sn" else 1))
                for x in (0, F(1, 2), F(5, 7), F(rng.randrange(10**15), 10**15 + 37)):
                    exact = fourier_limit(kind, obs, x)
                    assert abs(reported_limit(kind, obs, x, system) - exact) <= bound, (max_freq, scale, x)


class TestTorusAverages:
    def test_fast_matches_naive_for_all_kinds(self):
        rng = Random(409)
        systems = [sqrt23_system(), TorusSystem(F(1, 3), F(2, 7))]
        for sys in systems:
            for kind, arity in AVERAGE_KINDS.items():
                obs = [random_poly(rng, max_freq=2) for _ in range(arity)]
                for N in (1, 2, 4, 5):
                    x = F(rng.randint(0, 9), 10)
                    fast = torus_average(sys, kind, obs, x, N)
                    slow = torus_average_naive(sys, kind, obs, x, N)
                    assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-9)

    def test_cubic_approaches_analytic_limit(self):
        sys = sqrt23_system()
        cos1 = TrigPoly.cosine(1)
        limit = fourier_limit("cubic", [cos1] * 3, 0)
        value = torus_average(sys, "cubic", [cos1, cos1, cos1], 0, 4096)
        assert abs(value - limit) < 2e-2

    def test_fourfold_approaches_host_integral(self):
        sys = sqrt23_system()
        sin1 = TrigPoly.sine(1)
        target = fourier_limit("fourfold", [sin1] * 4, F(1, 3))
        value = torus_average(sys, "fourfold", [sin1] * 4, F(1, 3), 2048)
        assert abs(value - target) < 2e-2

    def test_birkhoff_approaches_mean(self):
        sys = sqrt23_system()
        poly = TrigPoly.constant(0.75) + TrigPoly.cosine(2, 0.5)
        for kind in ("birkhoff_1d", "birkhoff_2d"):
            value = torus_average(sys, kind, [poly], F(2, 5), 1024)
            assert abs(value - 0.75) < 1e-2

    def test_rational_rotations_average_over_finite_orbit(self):
        # alpha = 1/4: the 1d averages hit the four quarter points exactly
        sys = TorusSystem(F(1, 4), F(1, 3))
        cos1 = TrigPoly.cosine(1)
        assert abs(torus_average(sys, "birkhoff_1d", [cos1], 0, 4)) < 1e-12
        assert abs(torus_average(sys, "birkhoff_1d", [cos1], 0, 8)) < 1e-12

    def test_argument_validation(self):
        sys = sqrt23_system()
        cos1 = TrigPoly.cosine(1)
        with pytest.raises(ValueError, match="unknown average kind"):
            torus_average(sys, "quintic", [cos1], 0, 4)
        with pytest.raises(DimensionError, match="needs 3 observables"):
            torus_average(sys, "cubic", [cos1], 0, 4)
        with pytest.raises(ValueError, match="window size must be positive"):
            torus_average(sys, "birkhoff_1d", [cos1], 0, 0)

    def test_rejects_observables_whose_bound_overflows(self):
        # |value|, |reference| and the error are each at most 2 * prod sup_bound
        sys = sqrt23_system()
        huge = TrigPoly.cosine(1, 2e100)
        assert math.isfinite(torus_average(sys, "cubic", [huge] * 3, 0, 8))
        for kind, obs in (("fourfold", [huge] * 4), ("windowed_sn", [huge]), ("cubic", [TrigPoly.cosine(1, 2e200)] * 3)):
            with pytest.raises(ValueError, match="overflows"):
                torus_average(sys, kind, obs, 0, 4)
            with pytest.raises(ValueError, match="overflows"):
                torus_report(sys, kind, obs, 0, [4])

    def test_every_kind_near_its_limit_at_huge_windows(self):
        sys = sqrt23_system()
        rng = Random(421)
        x = F(2, 11)
        for kind, arity in AVERAGE_KINDS.items():
            obs = [random_poly(rng, max_freq=2) for _ in range(arity)]
            limit = fourier_limit(kind, obs, x)
            value = torus_average(sys, kind, obs, x, 2**40)
            assert math.isfinite(value), kind
            assert abs(value - limit) < 2e-2, kind


def period_quadruple_average(sys, kind, observables, x, pa, pb):
    """The four-index box sum of `kind` with i, k over one period pa of alpha
    and j, p over one period pb of beta.  Over a window N that both periods
    divide every index residue is hit N / period times, so this equals the
    window average at N."""
    fs = list(observables) * 4 if kind == "windowed_sn" else observables

    def at(f, i, j):
        return f.value(float((x + i * sys.alpha + j * sys.beta) % 1))

    total = math.fsum(
        at(fs[0], i, j) * at(fs[1], i + k, j) * at(fs[2], i, j + p) * at(fs[3], i + k, j + p)
        for i, k, j, p in itertools.product(range(pa), range(pa), range(pb), range(pb))
    )
    mean = total / (pa * pa * pb * pb)
    return abs(mean) if kind == "windowed_sn" else mean


class TestExactZerosAndHalves:
    """(1/3, 2/7) at windows that both periods divide: every N k alpha and
    N k beta is an integer, so each geometric mean is exactly 1 (k alpha or
    k beta an integer, negative k included) or 0, and the start 1/2 puts
    every start phase at exactly +1 or -1."""

    SYSTEM = TorusSystem(F(1, 3), F(2, 7))

    @pytest.mark.parametrize("kind", ["birkhoff_1d", "birkhoff_2d", "cubic"])
    def test_box_kinds_match_naive(self, kind):
        rng = Random(439)
        for N in (21, 42):
            for x in (0, F(1, 2)):
                obs = [random_poly(rng, max_freq=3) for _ in range(AVERAGE_KINDS[kind])]
                fast = torus_average(self.SYSTEM, kind, obs, x, N)
                slow = torus_average_naive(self.SYSTEM, kind, obs, x, N)
                assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-9), (N, x)

    @pytest.mark.parametrize("kind", ["windowed_sn", "fourfold"])
    def test_quadruple_kinds_match_naive(self, kind):
        rng = Random(461)
        for x in (0, F(1, 2)):
            obs = [random_poly(rng, max_freq=3) for _ in range(AVERAGE_KINDS[kind])]
            fast = torus_average(self.SYSTEM, kind, obs, x, 21)
            slow = torus_average_naive(self.SYSTEM, kind, obs, x, 21)
            assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-9), x

    @pytest.mark.parametrize("kind", ["windowed_sn", "fourfold"])
    def test_quadruple_kinds_match_the_period_box(self, kind):
        # the N^4 naive loop takes seconds at N = 42; one period per index
        # gives the same box average (checked against the naive loop below)
        rng = Random(443)
        for N in (21, 42):
            for x in (0, F(1, 2)):
                obs = [random_poly(rng, max_freq=3) for _ in range(AVERAGE_KINDS[kind])]
                fast = torus_average(self.SYSTEM, kind, obs, x, N)
                slow = period_quadruple_average(self.SYSTEM, kind, obs, x, 3, 7)
                assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-9), (N, x)

    @pytest.mark.parametrize("kind", ["windowed_sn", "fourfold"])
    def test_the_period_box_is_the_naive_box_sum(self, kind):
        sys = TorusSystem(F(1, 2), F(2, 3))
        rng = Random(449)
        for x in (0, F(1, 2)):
            obs = [random_poly(rng, max_freq=3) for _ in range(AVERAGE_KINDS[kind])]
            slow = torus_average_naive(sys, kind, obs, x, 6)
            assert math.isclose(period_quadruple_average(sys, kind, obs, x, 2, 3), slow, rel_tol=1e-9, abs_tol=1e-9)


def test_geometric_means_do_not_grow_with_the_window(monkeypatch):
    calls = []
    mean_phase = torus._mean_phase
    monkeypatch.setattr(torus, "_mean_phase", lambda p, q, N: calls.append(N) or mean_phase(p, q, N))
    rng = Random(457)
    for kind, arity in AVERAGE_KINDS.items():
        obs = [random_poly(rng, max_freq=2) for _ in range(arity)]
        counts = []
        for N in (2**4, 2**60):
            calls.clear()
            torus_average(sqrt23_system(), kind, obs, F(5, 7), N)
            assert calls and set(calls) == {N}
            counts.append(len(calls))
        assert counts[0] == counts[1], kind


def test_report_rows_are_the_window_averages_bit_for_bit():
    # the report builds its frequency table once; each row must still be
    # the float that torus_average computes for that window alone
    rng = Random(467)
    systems = (sqrt23_system(), TorusSystem(F(1, 3), F(2, 7)), TorusSystem(F(5, 12), F(5, 12)))
    for kind, arity in AVERAGE_KINDS.items():
        for degree in range(4):
            sys = rng.choice(systems)
            obs = [random_poly(rng, max_freq=degree) for _ in range(arity)]
            x = F(rng.randrange(10**6), rng.randrange(10**5, 10**6))
            schedule = sorted({2**k for k in range(0, 61, 1 if degree < 2 else 6)} | {rng.randrange(1, 2**61) | 1 for _ in range(3)})
            report = torus_report(sys, kind, obs, x, schedule)
            for row in report.rows:
                assert row.value == torus_average(sys, kind, obs, x, row.N), (kind, degree, row.N)


def test_coefficient_products_are_built_once_per_report(monkeypatch):
    prefixes = []
    frequency_table = torus._frequency_table

    def counted(*args):
        table = frequency_table(*args)
        prefixes.append(len(table[0]))
        return table

    monkeypatch.setattr(torus, "_frequency_table", counted)
    rng = Random(463)
    for kind, arity in AVERAGE_KINDS.items():
        obs = [random_poly(rng, max_freq=2) for _ in range(arity)]
        counts = []
        for schedule in ([2**60], [2**k for k in range(61)]):
            prefixes.clear()
            torus_report(sqrt23_system(), kind, obs, F(5, 7), schedule)
            counts.append(sum(prefixes))
        assert counts[0] == counts[1] == 5 ** (4 if kind == "windowed_sn" else arity), kind


def mp_value(f, theta):
    """f(theta) in high precision, each phase n*theta reduced mod 1 exactly."""
    total = mpmath.mpc(0)
    for n, c in f.coeffs.items():
        t = (n * theta) % 1
        total += mpmath.mpc(c.real, c.imag) * mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator)
    return total.real


def mp_box_average(sys, kind, observables, x, N):
    """The defining box sum of `kind` as literal loops at 50 digits."""
    with mpmath.workdps(50):
        cache = {}

        def at(k, i, j):
            # observable k at x + i*alpha + j*beta
            if (k, i, j) not in cache:
                cache[k, i, j] = mp_value(observables[k], x + i * sys.alpha + j * sys.beta)
            return cache[k, i, j]

        box = range(N)
        if kind == "birkhoff_1d":
            return mpmath.fsum(at(0, i, 0) for i in box) / N
        if kind == "birkhoff_2d":
            return mpmath.fsum(at(0, i, j) for i in box for j in box) / N**2
        if kind == "cubic":
            return mpmath.fsum(at(0, i, 0) * at(1, 0, j) * at(2, i, j) for i in box for j in box) / N**2
        if kind == "windowed_sn":
            total = mpmath.fsum(
                at(0, i, j) * at(0, i2, j) * at(0, i, j2) * at(0, i2, j2)
                for i, i2, j, j2 in itertools.product(box, repeat=4)
            )
            return abs(total) / mpmath.mpf(N) ** 4
        total = mpmath.fsum(
            at(0, i, j) * at(1, i + k, j) * at(2, i, j + p) * at(3, i + k, j + p)
            for i, k, j, p in itertools.product(box, repeat=4)
        )
        return total / mpmath.mpf(N) ** 4


class TestHighPrecisionOracle:
    # The stated bound of torus_average: 2**-44 times the product of the
    # observables' coefficient sums (sup_bound), for every N.
    SYSTEMS = (sqrt23_system(), TorusSystem(F(1, 3), F(2, 7)), TorusSystem(F(1, 10**8), F(3, 10**9)))

    def check(self, kind, sizes, seed):
        rng = Random(seed)
        for sys in self.SYSTEMS:
            obs = [random_poly(rng, max_freq=2) for _ in range(AVERAGE_KINDS[kind])]
            bound = 2.0**-44 * math.prod(f.sup_bound for f in obs * (4 if kind == "windowed_sn" else 1))
            for N in sizes:
                x = F(rng.randint(0, 96), 97)
                exact = mp_box_average(sys, kind, obs, x, N)
                assert abs(torus_average(sys, kind, obs, x, N) - exact) <= bound, (kind, sys, N)

    @pytest.mark.parametrize("kind", ["birkhoff_1d", "birkhoff_2d", "cubic"])
    def test_box_sums_up_to_64(self, kind):
        self.check(kind, (1, 5, 64), seed=431)

    @pytest.mark.parametrize("kind", ["windowed_sn", "fourfold"])
    def test_quadruple_sums_up_to_6(self, kind):
        self.check(kind, (1, 2, 6), seed=433)


class TestWindowBoundAtHugeWindows:
    """The stated bound of torus_average, 2**-44 times the product of the
    sup bounds, at every window N = 2**k + d, k <= 60, d < 4, against the
    60-digit closed form of one window (`oracles.fourier_window`), which
    first meets the literal box sums at N <= 3."""

    @pytest.mark.parametrize("kind, max_freq", [("birkhoff_2d", 2), ("cubic", 1), ("fourfold", 1)])
    def test_within_the_stated_bound(self, kind, max_freq):
        sys = sqrt23_system()
        rng = Random(439)
        obs = [random_poly(rng, max_freq=max_freq) for _ in range(AVERAGE_KINDS[kind])]
        x = F(rng.randrange(10**15), 10**15 + 37)
        with mpmath.workdps(50):
            for N in (1, 2, 3):
                assert abs(fourier_window(kind, obs, x, sys.alpha, sys.beta, N) - mp_box_average(sys, kind, obs, x, N)) < 1e-40
        bound = 2.0**-44 * math.prod(f.sup_bound for f in obs)
        for N in sorted({2**k + d for k in range(61) for d in range(4)}):
            exact = fourier_window(kind, obs, x, sys.alpha, sys.beta, N)
            assert abs(torus_average(sys, kind, obs, x, N) - exact) <= bound, (kind, N)


def test_import_leaves_numpy_unloaded():
    src = Path(ergocubes.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, ergocubes; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestTorusReport:
    def test_generic_report_carries_analytic_reference(self):
        sys = sqrt23_system()
        cos1 = TrigPoly.cosine(1)
        report = torus_report(sys, "cubic", [cos1, cos1, cos1], 0, [16, 64, 256])
        assert [row.N for row in report.rows] == [16, 64, 256]
        assert all(abs(row.reference - 0.25) < 1e-12 for row in report.rows)
        assert all(row.abs_error == abs(row.value - row.reference) for row in report.rows)
        assert report.metadata["kind"] == "cubic"

    def test_non_generic_report_has_no_reference(self):
        sys = TorusSystem(F(1, 5), F(1, 7))
        cos1 = TrigPoly.cosine(1)
        report = torus_report(sys, "cubic", [cos1, cos1, cos1], 0, [4, 8])
        assert all(row.reference is None and row.abs_error is None for row in report.rows)

    def test_windowed_reference_is_absolute_host_integral(self):
        sys = sqrt23_system()
        sin2 = TrigPoly.sine(2)
        report = torus_report(sys, "windowed_sn", [sin2], F(1, 9), [32])
        assert abs(report.rows[0].reference - 0.125) < 1e-12

    def test_schedule_validation(self):
        sys = sqrt23_system()
        cos1 = TrigPoly.cosine(1)
        with pytest.raises(ValueError, match="positive window sizes"):
            torus_report(sys, "cubic", [cos1] * 3, 0, [])
        with pytest.raises(ValueError, match="strictly increasing"):
            torus_report(sys, "cubic", [cos1] * 3, 0, [8, 8])
