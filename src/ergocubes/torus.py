"""Circle rotations with trigonometric-polynomial observables.

The continuous companion to the finite systems: S and T rotate the circle by
fixed amounts alpha and beta.  Every average is evaluated in closed form from
one frequency table per report: at each window size N, and, for a rotation
pair declared generic, at its N -> infinity limit, the report's reference.
Rotation amounts are stored as high-precision Fractions, and every phase like
(x + i*alpha) mod 1 is reduced exactly in integers over the denominators of
alpha, beta and x before any float rounding.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence

from .core import as_fraction
from .averaging import ConvergenceReport, check_kind, check_schedule, schedule_report

DEFAULT_PRECISION_BITS = 128


def sqrt_fraction(k: int, bits: int = DEFAULT_PRECISION_BITS) -> Fraction:
    """A Fraction within 2**-bits of sqrt(k) (floor of the scaled integer root)."""
    if k < 0:
        raise ValueError(f"square root of negative integer: {k}")
    return Fraction(math.isqrt(k << (2 * bits)), 1 << bits)


@dataclass(frozen=True)
class TorusSystem:
    """Two commuting circle rotations x -> x + alpha and x -> x + beta.

    `generic` declares that (alpha, beta, 1) satisfy no rational relation.
    The stored amounts are rational approximants, so genericity is a
    declaration about the numbers they stand for, not a checkable property;
    reports carry their limit as a reference only for a generic pair.
    """

    alpha: Fraction
    beta: Fraction
    generic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha) % 1)
        object.__setattr__(self, "beta", as_fraction(self.beta) % 1)


def sqrt23_system(bits: int = DEFAULT_PRECISION_BITS) -> TorusSystem:
    """Rotations by sqrt(2)-1 and sqrt(3)-1: the stock generic pair."""
    return TorusSystem(sqrt_fraction(2, bits) - 1, sqrt_fraction(3, bits) - 1, generic=True)


class TrigPoly:
    """A real-valued trigonometric polynomial sum_n c_n e^{2 pi i n x}.

    Coefficients must be finite and satisfy c_{-n} = conj(c_n) (that is what
    real-valued means); the constructor checks both exactly.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, complex]):
        cleaned = {int(n): complex(c) for n, c in coeffs.items() if complex(c) != 0}
        for n, c in cleaned.items():
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient at frequency {n} is not finite: {c}")
            if cleaned.get(-n, 0j) != c.conjugate():
                raise ValueError(f"coefficients are not conjugate-symmetric at frequency {n}")
        self.coeffs = cleaned

    @classmethod
    def constant(cls, value: float) -> "TrigPoly":
        return cls({0: complex(value)})

    @classmethod
    def cosine(cls, n: int, amplitude: float = 1.0) -> "TrigPoly":
        if n == 0:
            return cls.constant(amplitude)
        return cls({n: amplitude / 2, -n: amplitude / 2})

    @classmethod
    def sine(cls, n: int, amplitude: float = 1.0) -> "TrigPoly":
        if n == 0:
            return cls({})
        return cls({n: complex(0, -amplitude / 2), -n: complex(0, amplitude / 2)})

    def coeff(self, n: int) -> complex:
        return self.coeffs.get(n, 0j)

    @property
    def degree(self) -> int:
        return max((abs(n) for n in self.coeffs), default=0)

    @property
    def sup_bound(self) -> float:
        """sum |c_n|, an upper bound for the sup norm; inf when that sum is
        past float range."""
        try:
            return math.fsum(abs(c) for c in self.coeffs.values())
        except OverflowError:
            return math.inf

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        merged = dict(self.coeffs)
        for n, c in other.coeffs.items():
            merged[n] = merged.get(n, 0j) + c
        return TrigPoly(merged)

    def __mul__(self, scalar) -> "TrigPoly":
        if isinstance(scalar, TrigPoly):
            out: Dict[int, complex] = {}
            for n, c in self.coeffs.items():
                for m, d in scalar.coeffs.items():
                    out[n + m] = out.get(n + m, 0j) + c * d
            return TrigPoly(out)
        return TrigPoly({n: c * scalar for n, c in self.coeffs.items()})

    __rmul__ = __mul__

    def value(self, x: float) -> float:
        """Evaluate at a point (x taken mod 1 implicitly by periodicity)."""
        x = float(x)
        terms = [self.coeff(0).real]
        for n, c in self.coeffs.items():
            if n > 0:
                angle = 2.0 * math.pi * n * x
                terms.append(2.0 * (c.real * math.cos(angle) - c.imag * math.sin(angle)))
        return math.fsum(terms)


def _e(num: int, den: int) -> complex:
    """exp(2 pi i num/den), with num reduced mod den exactly before rounding."""
    angle = 2.0 * math.pi * (num % den / den)
    return complex(math.cos(angle), math.sin(angle))


def _sin_pi(m: int, q: int) -> float:
    """sin(pi m/q), with m/q reduced exactly into [0, 1/2] before rounding, so
    the float argument keeps full relative precision next to every zero."""
    m %= 2 * q
    sign = 1.0
    if m > q:
        m, sign = m - q, -1.0
    if 2 * m > q:
        m = q - m
    return sign * math.sin(math.pi * (m / q))


def _mean_phase(p: int, q: int, N: int) -> complex:
    """(1/N) sum_{k<N} e^{2 pi i k p/q} in sin-ratio form,
    e((N-1) p / 2q) sin(pi N p/q) / (N sin(pi p/q))."""
    p %= q
    if p == 0:
        return complex(1.0)
    return _e((N - 1) * p, 2 * q) * (_sin_pi(N * p, q) / (N * _sin_pi(p, q)))


# Expanding every observable of a box sum in frequencies turns the sum into
# sum over frequency tuples n of c(n) e(M x) prod G(k alpha) prod G(k beta),
# where M is the total frequency and G(t) = sum_{i<N} e(i t); the average
# divides each G by N.  Each entry maps n to the multiples k of alpha and of
# beta, one per box index:
#   birkhoff_1d  f(x + i a)
#   birkhoff_2d  f(x + i a + j b)
#   cubic        f1(x + i a) f2(x + j b) f3(x + i a + j b)
#   windowed_sn  f(x + i a + j b) f(x + i'a + j b) f(x + i a + j'b) f(x + i'a + j'b)
#   fourfold     f0(x + i a + j b) f1(x + (i+k) a + j b) f2(x + i a + (j+p) b)
#                f3(x + (i+k) a + (j+p) b)
_BOXES = {
    "birkhoff_1d": lambda n: ((n,), ()),
    "birkhoff_2d": lambda n: ((n,), (n,)),
    "cubic": lambda n1, n2, n3: ((n1 + n3,), (n2 + n3,)),
    "windowed_sn": lambda n0, n1, n2, n3: ((n0 + n2, n1 + n3), (n0 + n1, n2 + n3)),
    "fourfold": lambda n0, n1, n2, n3: ((n0 + n1 + n2 + n3, n1 + n3), (n0 + n1 + n2 + n3, n2 + n3)),
}


def _check_torus_args(kind: str, observables: Sequence[TrigPoly], N: int):
    check_kind(kind, len(observables))
    if N < 1:
        raise ValueError(f"window size must be positive, got {N}")
    # the kernels multiply floats by N
    if N > sys.float_info.max:
        raise ValueError(f"torus window sizes must be at most the largest float, got one of {N.bit_length()} bits")
    # |value|, |reference| and their difference are each at most 2B, where B
    # scales the stated error bound; a B past float range has no such bound.
    repeat = 4 if kind == "windowed_sn" else 1
    bound = math.prod(f.sup_bound for f in list(observables) * repeat)
    if not math.isfinite(2 * bound):
        raise ValueError("observables too large: twice the product of their sup bounds overflows a float")


def _frequency_table(system: TorusSystem, kind: str, observables: Sequence[TrigPoly], x):
    """The part of a window average that does not depend on N, built once
    per report.  Each frequency tuple n of the expanded box sum (see _BOXES)
    becomes a row (e(M x) c(n), factors): the start phase times the
    coefficients, multiplied left to right, and the positions in `means` of
    the geometric means it is multiplied by next, in _BOXES order.  `means`
    lists the arguments of _mean_phase, one per distinct multiple of alpha
    and of beta."""
    polys = list(observables) * 4 if kind == "windowed_sn" else observables
    pa, qa = system.alpha.as_integer_ratio()
    pb, qb = system.beta.as_integer_ratio()
    px, qx = as_fraction(x).as_integer_ratio()
    phase = functools.cache(lambda m: _e(m * px, qx))
    slots: Dict[tuple, int] = {}
    rows = []
    for items in itertools.product(*(sorted(f.coeffs.items()) for f in polys)):
        ns = [n for n, _ in items]
        along_a, along_b = _BOXES[kind](*ns)
        keys = [(k * pa, qa) for k in along_a] + [(k * pb, qb) for k in along_b]
        factors = tuple(slots.setdefault(key, len(slots)) for key in keys)
        rows.append((math.prod([c for _, c in items], start=phase(sum(ns))), factors))
    return rows, list(slots)


def _window_average(table, kind: str, means: Sequence[complex]) -> float:
    """One average from a frequency table and its geometric means' values, in
    table order: each row's prefix times its means in order, summed exactly.
    A window passes _mean_phase(p, q, N).  The N -> infinity limit passes
    complex(p % q == 0): _mean_phase is exactly 1 when q | p, and otherwise
    at most 1 / (N |sin(pi p/q)|), which tends to 0."""
    terms = []
    for term, factors in table[0]:
        for i in factors:
            term *= means[i]
        terms.append(term.real)
    value = math.fsum(terms)
    return abs(value) if kind == "windowed_sn" else value


def torus_average(system: TorusSystem, kind: str, observables: Sequence[TrigPoly], x, N: int) -> float:
    """Evaluate one window average at size N in closed form.

    The box sum is evaluated term by term over frequency tuples (see
    _BOXES), each geometric sum once per frequency, so the cost is
    O(deg^4) whatever N is.  Every phase is reduced exactly in integers over
    the denominators of alpha, beta and x before it becomes a float.  Error
    bound: for every N the result is within 2**-44 * prod_i f_i.sup_bound of
    the exact box average at the stored rotation amounts and start (for
    windowed_sn the product is f.sup_bound ** 4).  Raises ValueError when
    twice that product is not a finite float, or when N is above the largest
    float.
    """
    _check_torus_args(kind, observables, N)
    table = _frequency_table(system, kind, observables, x)
    return _window_average(table, kind, [_mean_phase(p, q, N) for p, q in table[1]])


def torus_average_naive(system: TorusSystem, kind: str, observables: Sequence[TrigPoly], x, N: int) -> float:
    """Literal loops over the defining box sums; reference for small N."""
    _check_torus_args(kind, observables, N)
    x = as_fraction(x) % 1
    a, b = system.alpha, system.beta

    @functools.cache
    def at(i: int, j: int, f: TrigPoly) -> float:
        return f.value(float((x + i * a + j * b) % 1))

    if kind == "birkhoff_1d":
        f = observables[0]
        return math.fsum(at(i, 0, f) for i in range(N)) / N
    if kind == "birkhoff_2d":
        f = observables[0]
        return math.fsum(at(i, j, f) for i in range(N) for j in range(N)) / N**2
    if kind == "cubic":
        f1, f2, f3 = observables
        total = math.fsum(
            at(i, 0, f1) * at(0, j, f2) * at(i, j, f3)
            for i in range(N)
            for j in range(N)
        )
        return total / N**2
    if kind == "windowed_sn":
        f = observables[0]
        total = math.fsum(
            at(i, j, f) * at(i + k, j, f) * at(i, j + p, f) * at(i + k, j + p, f)
            for i in range(N)
            for j in range(N)
            for k in range(-i, N - i)
            for p in range(-j, N - j)
        )
        return abs(total) / N**4
    f0, f1, f2, f3 = observables
    total = math.fsum(
        at(i, j, f0) * at(i + k, j, f1) * at(i, j + p, f2) * at(i + k, j + p, f3)
        for i in range(N)
        for j in range(N)
        for k in range(N)
        for p in range(N)
    )
    return total / N**4


def torus_report(
    system: TorusSystem,
    kind: str,
    observables: Sequence[TrigPoly],
    x,
    schedule: Sequence[int],
) -> ConvergenceReport:
    """Run one kind over a schedule against its limit: for a generic system,
    the frequency table with every geometric mean at N -> infinity (see
    _window_average); otherwise no reference.  Unless a coefficient product
    underflows, the reference is within 2**-48 * prod_i f_i.sup_bound
    (f.sup_bound ** 4 for windowed_sn) of the exact limit at the stored
    rotation amounts and start.  That limit is the Fourier closed form unless
    a frequency combination is a nonzero multiple of an approximant's
    denominator (2**128 for sqrt23_system)."""
    check_schedule(schedule)
    observables = list(observables)
    _check_torus_args(kind, observables, schedule[-1])
    table = _frequency_table(system, kind, observables, x)
    reference = _window_average(table, kind, [complex(p % q == 0) for p, q in table[1]]) if system.generic else None
    metadata = {"kind": kind, "start": str(as_fraction(x) % 1), "alpha": str(system.alpha), "beta": str(system.beta)}
    return schedule_report(
        schedule, lambda N: _window_average(table, kind, [_mean_phase(p, q, N) for p, q in table[1]]), reference, metadata
    )
