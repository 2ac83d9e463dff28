"""Exact-arithmetic building blocks: partitions, observables, sparse measures.

Everything in this module is carried by `fractions.Fraction`, so identities
proved by hand can be asserted as equalities in tests.  All containers are
immutable after construction and safe to share between readers.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Sequence, Tuple


class DimensionError(ValueError):
    """Sizes or arities of two objects do not line up."""


class PreconditionError(ValueError):
    """A stated precondition of an operation does not hold."""


# The window averages and how many observables each takes.  `averaging` and
# `torus` compute them; the table lives here so that the command line can
# offer the kinds without loading either.
AVERAGE_KINDS = {
    "cubic": 3,
    "fourfold": 4,
    "windowed_sn": 1,
    "birkhoff_1d": 1,
    "birkhoff_2d": 1,
}


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like "p/q", and Fractions; reject floats.

    Floats are rejected on purpose: a float sneaking into an exact container
    silently destroys every equality this package asserts.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact containers; pass a str or Fraction")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


_PLAIN_RATIONAL = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*")


def parse_rational(text: str) -> Fraction:
    """`Fraction(text)`.  The plain forms `[+-]p` and `[+-]p/q` are read with
    `int`; any other text first has its decimal exponent checked to be at
    most `sys.int_info.default_max_str_digits` (the longest int string Python
    converts): `Fraction("1e-999999999")` would build a billion-digit int."""
    plain = _PLAIN_RATIONAL.fullmatch(text)
    if plain:
        p, q = plain.groups()
        return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
    exponent = re.search(r"[eE]([-+]?[\d_]+)\s*\Z", text)
    if exponent and abs(int(exponent.group(1))) > sys.int_info.default_max_str_digits:
        raise ValueError(f"decimal exponent above {sys.int_info.default_max_str_digits} in size")
    return Fraction(text)


def common_denominator(values: Iterable[Fraction]) -> Tuple[List[int], int]:
    """Rationals as integer numerators over one denominator, the lcm of theirs."""
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def format_fraction(value: Fraction) -> str:
    """Serialize a rational as "p/q" (denominator always written)."""
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Partition:
    """A partition of {0, ..., n-1} with canonical block labels.

    Block ids are assigned by first occurrence, so two partitions are equal
    iff they have the same blocks.  The canonical form is an invariant:
    constructing a `Partition` from non-canonical labels raises.
    """

    block_of: Tuple[int, ...]

    def __post_init__(self):
        seen = -1
        for b in self.block_of:
            if b < 0 or b > seen + 1:
                raise ValueError("partition labels are not in first-occurrence canonical form")
            seen = max(seen, b)

    @staticmethod
    def from_labels(labels: Sequence) -> "Partition":
        """Build a partition from arbitrary hashable labels."""
        remap: Dict = {}
        out = []
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            out.append(remap[lab])
        return Partition(tuple(out))

    @staticmethod
    def singletons(n: int) -> "Partition":
        return Partition(tuple(range(n)))

    @staticmethod
    def one_block(n: int) -> "Partition":
        return Partition((0,) * n)

    @property
    def n(self) -> int:
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        return max(self.block_of) + 1 if self.block_of else 0

    def blocks(self) -> List[Tuple[int, ...]]:
        """Blocks as tuples of point indices, in canonical (label) order."""
        out: List[List[int]] = [[] for _ in range(self.num_blocks)]
        for x, b in enumerate(self.block_of):
            out[b].append(x)
        return [tuple(b) for b in out]

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a single block of other."""
        if self.n != other.n:
            raise DimensionError(f"partition sizes differ: {self.n} != {other.n}")
        image: Dict[int, int] = {}
        for x in range(self.n):
            mine, theirs = self.block_of[x], other.block_of[x]
            if image.setdefault(mine, theirs) != theirs:
                return False
        return True


def common_refinement(p: Partition, q: Partition) -> Partition:
    """Coarsest partition refining both arguments."""
    if p.n != q.n:
        raise DimensionError(f"partition sizes differ: {p.n} != {q.n}")
    return Partition.from_labels(list(zip(p.block_of, q.block_of)))


@dataclass(frozen=True)
class Observable:
    """A rational-valued function on the points of a finite system."""

    values: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))

    @staticmethod
    def constant(n: int, c) -> "Observable":
        return Observable((as_fraction(c),) * n)

    @staticmethod
    def indicator(n: int, x: int) -> "Observable":
        vals = [Fraction(0)] * n
        vals[x] = Fraction(1)
        return Observable(tuple(vals))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def sup_norm(self) -> Fraction:
        return max((abs(v) for v in self.values), default=Fraction(0))

    @cached_property
    def scaled(self) -> Tuple[Tuple[int, ...], int]:
        """The values as integer numerators over one denominator, computed
        once per observable (`common_denominator`)."""
        nums, d = common_denominator(self.values)
        return tuple(nums), d

    def __call__(self, x: int) -> Fraction:
        return self.values[x]

    def __add__(self, other: "Observable") -> "Observable":
        self._check(other)
        return Observable(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "Observable") -> "Observable":
        self._check(other)
        return Observable(tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other) -> "Observable":
        """Pointwise product with an observable, or scaling by a rational."""
        if isinstance(other, Observable):
            self._check(other)
            return Observable(tuple(a * b for a, b in zip(self.values, other.values)))
        c = as_fraction(other)
        return Observable(tuple(c * a for a in self.values))

    __rmul__ = __mul__

    def _check(self, other: "Observable"):
        if self.n != other.n:
            raise DimensionError(f"observable sizes differ: {self.n} != {other.n}")


@dataclass(frozen=True)
class SparseMeasure:
    """A probability measure on X^arity storing only positive-weight tuples.

    Invariants enforced at construction: every stored weight is a positive
    rational, indices lie in range, keys have the declared arity, and the
    total mass is exactly 1.
    """

    arity: int
    n: int
    entries: Dict[Tuple[int, ...], Fraction] = field(compare=True)

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        clean: Dict[Tuple[int, ...], Fraction] = {}
        for key, w in self.entries.items():
            key = tuple(key)
            if len(key) != self.arity:
                raise DimensionError(f"entry {key} does not have arity {self.arity}")
            if any(not (0 <= t < self.n) for t in key):
                raise ValueError(f"entry {key} indexes outside 0..{self.n - 1}")
            w = as_fraction(w)
            if w <= 0:
                raise ValueError(f"weight of {key} is not positive: {w}")
            clean[key] = w
        nums, d = common_denominator(clean.values())
        if sum(nums) != d:
            raise ValueError(f"total mass is {Fraction(sum(nums), d)}, expected exactly 1")
        object.__setattr__(self, "entries", clean)

    def weight(self, key: Tuple[int, ...]) -> Fraction:
        return self.entries.get(tuple(key), Fraction(0))


def integrate(measure: SparseMeasure, observables: Sequence[Observable]) -> Fraction:
    """Exact integral of a product observable f_1(x_1)...f_k(x_k)."""
    if len(observables) != measure.arity:
        raise DimensionError(
            f"need {measure.arity} observables for arity {measure.arity}, got {len(observables)}"
        )
    for f in observables:
        if f.n != measure.n:
            raise DimensionError(f"observable on {f.n} points vs measure on {measure.n}")
    total = Fraction(0)
    for key, w in measure.entries.items():
        term = w
        for f, t in zip(observables, key):
            term *= f.values[t]
            if term == 0:
                break
        total += term
    return total


def marginal(measure: SparseMeasure, coord: int) -> SparseMeasure:
    """Pushforward onto a single coordinate, as an arity-1 measure."""
    if not (0 <= coord < measure.arity):
        raise DimensionError(f"coordinate {coord} out of range for arity {measure.arity}")
    sums: Dict[Tuple[int, ...], Fraction] = {}
    for key, w in measure.entries.items():
        t = (key[coord],)
        sums[t] = sums.get(t, Fraction(0)) + w
    return SparseMeasure(1, measure.n, sums)
