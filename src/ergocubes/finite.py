"""Finite measure-preserving systems with two commuting permutations.

A `FiniteMPS` is a weighted point set {0..n-1} together with two commuting,
weight-preserving permutations S and T, i.e. a measure-preserving Z^2 action
presented by its two generators.  Zero-weight points are stripped at
construction (measure preservation makes the zero set invariant), so weights
are always strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .core import DimensionError, Partition, as_fraction, common_denominator, format_fraction, parse_rational


class InvalidSystemError(ValueError):
    """System data violates a construction invariant; the message names it."""


@dataclass(frozen=True)
class GroupElement:
    """An element S^i T^j of the acting group, by its exponents (i, j)."""

    i: int
    j: int


S_GEN = GroupElement(1, 0)
T_GEN = GroupElement(0, 1)


def check_commuting(perms: Sequence[Sequence[int]], n: int, names: Sequence[str]) -> List[Tuple[int, ...]]:
    """The permutations as tuples, once each is checked to permute 0..n-1 and
    every two of them to commute; `names` labels them in the errors."""
    perms = [tuple(perm) for perm in perms]
    for name, perm in zip(names, perms):
        if len(perm) != n or sorted(perm) != list(range(n)):
            raise InvalidSystemError(f"bad permutation: {name} is not a permutation of 0..{n - 1}")
    for (a, pa), (b, pb) in combinations(zip(names, perms), 2):
        for x in range(n):
            if pa[pb[x]] != pb[pa[x]]:
                raise InvalidSystemError(f"non-commuting: {a} and {b} do not commute at point {x}")
    return perms


def perm_cycle(perm: Sequence[int], x: int) -> List[int]:
    """The cycle of `perm` through x, starting at x."""
    out, y = [x], perm[x]
    while y != x:
        out.append(y)
        y = perm[y]
    return out


def _cycle_table(perm: Tuple[int, ...]):
    """(cycles, orbits, pos): the cycles of `perm` listed by smallest point,
    each starting there; each point's cycle index as a `Partition` (the
    labels are canonical already); each point's position in its cycle."""
    cycles, index, pos = [], [-1] * len(perm), [0] * len(perm)
    for x in range(len(perm)):
        if index[x] < 0:
            cycle = tuple(perm_cycle(perm, x))
            for k, y in enumerate(cycle):
                index[y], pos[y] = len(cycles), k
            cycles.append(cycle)
    return tuple(cycles), Partition(tuple(index)), tuple(pos)


def _grid(sys: "FiniteMPS", x: int):
    """`orbit_grid` at x from the cycle tables: row 0 is x's T-cycle, rotated to start at x."""
    (s_cycles, s_orbits, _), (t_cycles, t_orbits, t_pos) = sys._cycles("S"), sys._cycles("T")
    cycle, k = t_cycles[t_orbits.block_of[x]], t_pos[x]
    grid = [cycle[k:] + cycle[:k]]
    for _ in range(len(s_cycles[s_orbits.block_of[x]]) - 1):
        grid.append(tuple(sys.S[p] for p in grid[-1]))
    return len(grid), len(grid[0]), tuple(grid)


class FiniteMPS:
    """A finite system (X, mu, S, T) with S, T commuting and mu-preserving."""

    __slots__ = ("n", "weights", "S", "T", "_memo")

    def __init__(self, weights: Sequence, S: Sequence[int], T: Sequence[int]):
        weights = [as_fraction(w) for w in weights]
        n = len(weights)
        S, T = check_commuting((S, T), n, ("S", "T"))
        nums, d = common_denominator(weights)
        if any(u < 0 for u in nums):
            raise InvalidSystemError("bad weights: negative entry")
        if sum(nums) != d:
            raise InvalidSystemError(f"bad weights: total mass {Fraction(sum(nums), d)} != 1")
        for x in range(n):
            if nums[S[x]] != nums[x]:
                raise InvalidSystemError(f"non-preserving: weight changes along S at point {x}")
            if nums[T[x]] != nums[x]:
                raise InvalidSystemError(f"non-preserving: weight changes along T at point {x}")

        if 0 in nums:
            # The zero-weight set is S- and T-invariant, so restriction is sound.
            keep = [x for x in range(n) if nums[x]]
            index = {x: k for k, x in enumerate(keep)}
            weights = [weights[x] for x in keep]
            S = tuple(index[S[x]] for x in keep)
            T = tuple(index[T[x]] for x in keep)
            n = len(keep)
        if n == 0:
            raise InvalidSystemError("bad weights: empty support")

        self.n = n
        self.weights = tuple(weights)
        self.S = S
        self.T = T
        self._memo: Dict[Hashable, object] = {}

    # -- derived data ------------------------------------------------------

    def cached(self, key: Hashable, build: Callable, *args):
        """The structure derived under `key`: `build(*args)` once per system.

        Only structure is memoized (the cycle tables of S and T, the joint
        orbit partition, orbit grids, the host measure, which holds the grids
        of the joint orbits' first points, the seminorm kernel basis), never
        a verdict, and no value may refer back to the system, so a system is
        freed with its memo as soon as its last reference goes.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build(*args)
            return value

    def _cycles(self, which: str):
        """The cycle table of S or T (`_cycle_table`), memoized."""
        return self.cached(which, _cycle_table, self.S if which == "S" else self.T)

    def order_s(self) -> int:
        """lcm of the S-cycle lengths (the order of S as a permutation)."""
        return math.lcm(*map(len, self._cycles("S")[0]))

    def order_t(self) -> int:
        return math.lcm(*map(len, self._cycles("T")[0]))

    def _step(self, which: str, e: int, x: int) -> int:
        cycles, orbits, pos = self._cycles(which)
        cycle = cycles[orbits.block_of[x]]
        return cycle[(pos[x] + e) % len(cycle)]

    def apply(self, g: GroupElement, x: int) -> int:
        """Apply S^i T^j to a point: one lookup in each generator's cycle table."""
        self._check_point(x)
        return self._step("S", g.i, self._step("T", g.j, x))

    def group_perm(self, g: GroupElement) -> Tuple[int, ...]:
        """The permutation S^i T^j as an index map."""
        return tuple(self.apply(g, x) for x in range(self.n))

    def _check_point(self, x: int):
        if not (0 <= x < self.n):
            raise DimensionError(f"start point {x} outside 0..{self.n - 1}")

    def orbit_grid(self, x: int) -> Tuple[int, int, Tuple[Tuple[int, ...], ...]]:
        """(a, b, grid): a and b are the S- and T-cycle lengths at x, and
        grid[r][s] = S^r T^s x for r < a, s < b."""
        self._check_point(x)
        return self.cached(("grid", x), _grid, self, x)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteMPS)
            and self.weights == other.weights
            and self.S == other.S
            and self.T == other.T
        )

    def __repr__(self):
        return f"FiniteMPS(n={self.n})"


def orbit_partition(perms: Iterable[Sequence[int]], n: int) -> Partition:
    """Orbit partition of the group generated by permutations of 0..n-1
    (union-find); blocks are ordered by their smallest member.

    Since the generators permute a finite set, closing under the forward
    maps alone already yields the full orbit relation.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for x in range(n):
            rx, ry = find(x), find(perm[x])
            if rx != ry:
                parent[ry] = rx
    return Partition.from_labels([find(x) for x in range(n)])


def invariant_partition(sys: FiniteMPS, gens: Iterable[GroupElement]) -> Partition:
    """Orbit partition of the subgroup generated by `gens`."""
    return orbit_partition([sys.group_perm(g) for g in gens], sys.n)


def partition_s(sys: FiniteMPS) -> Partition:
    """Partition into S-orbits; its saturated sets are the S-invariant sets."""
    return sys._cycles("S")[1]


def partition_t(sys: FiniteMPS) -> Partition:
    return sys._cycles("T")[1]


def partition_st(sys: FiniteMPS) -> Partition:
    """Partition into joint orbits: the supports of the ergodic components."""
    return sys.cached("ST", invariant_partition, sys, (S_GEN, T_GEN))


def is_ergodic(sys: FiniteMPS) -> bool:
    """True iff the two-generator action is transitive on the support."""
    return partition_st(sys).num_blocks == 1


class FreenessResult(NamedTuple):
    free: bool
    witness: Optional[Tuple[int, int]]  # (i, j) with S^i T^j = identity when not free


def _meet(a: Tuple[int, int, int], b: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """The intersection of two lattices in triangular form, where (p, q, r)
    stands for {(i, j) : p | i, j = (i/p)·q mod r}."""
    (p1, q1, r1), (p2, q2, r2) = a, b
    lcm_p, g = math.lcm(p1, p2), math.gcd(r1, r2)
    u1, u2 = lcm_p // p1 * q1, lcm_p // p2 * q2
    # i = k·lcm_p needs j = k·u1 mod r1 and j = k·u2 mod r2: solvable iff
    # k·(u1 - u2) = 0 mod g, i.e. k a multiple of g / gcd(u1 - u2, g).
    k = g // math.gcd(u1 - u2, g)
    u1, u2 = k * u1, k * u2
    # Chinese remainders for the two congruences, which agree mod g.
    t = (u2 - u1) // g * pow(r1 // g, -1, r2 // g) % (r2 // g)
    r = r1 // g * r2
    return k * lcm_p, (u1 + r1 * t) % r, r


def is_free(sys: FiniteMPS) -> FreenessResult:
    """Freeness decided from the stabilizer lattice L = {(i, j) : S^i T^j = id}.

    The action is called free when S^i T^j is the identity only for
    (i, j) = (0, 0) with 0 <= i < ord(S), 0 <= j < ord(T), i.e. when L is
    ord(S)·Z x ord(T)·Z.  A trivial generator (ord = 1) is a degenerate
    failure witnessed by (1, 0) or (0, 1).

    S and T commute, so the stabilizer of a point is constant on its joint
    orbit; take one point x per orbit.  With r the T-cycle length at x, p the
    least i >= 1 with S^i x in the T-orbit of x, and S^p x = T^e x, that
    stabilizer is {(i, j) : p | i, j = (i/p)·q mod r} with q = -e mod r.  L
    is the intersection of these over the orbits, which keeps the same
    triangular form: r becomes lcm of the T-cycle lengths, ord(T), and p the
    least i >= 1 with some (i, j) in L.  Since (ord(S), 0) is in L, p divides
    ord(S), and the action is free exactly when p = ord(S).  Otherwise the
    witness is (p, q mod r): the least such i, with the least j >= 0 for it.
    The cost is one walk over the points plus integer arithmetic per orbit.
    """
    if sys.order_s() == 1:
        return FreenessResult(False, (1, 0))
    if sys.order_t() == 1:
        return FreenessResult(False, (0, 1))
    lattice = (1, 0, 1)  # all of Z^2
    cycles, t_orbits, pos = sys._cycles("T")
    for block in partition_st(sys).blocks():
        x = block[0]
        c, p, y = t_orbits.block_of[x], 1, sys.S[x]
        while t_orbits.block_of[y] != c:
            p, y = p + 1, sys.S[y]
        r = len(cycles[c])
        lattice = _meet(lattice, (p, (pos[x] - pos[y]) % r, r))
    p, q, _ = lattice
    if p == sys.order_s():
        return FreenessResult(True, None)
    return FreenessResult(False, (p, q))


@dataclass(frozen=True)
class ErgodicComponent:
    """One transitivity class of the action, with its conditional measure."""

    support: Tuple[int, ...]
    weights: Tuple[Fraction, ...]  # conditional probabilities on the support
    mass: Fraction

    def subsystem(self, sys: FiniteMPS) -> "FiniteMPS":
        """The component as a system in its own right (indices = support order)."""
        index = {x: k for k, x in enumerate(self.support)}
        return FiniteMPS(
            self.weights,
            [index[sys.S[x]] for x in self.support],
            [index[sys.T[x]] for x in self.support],
        )


def ergodic_decomposition(sys: FiniteMPS) -> List[ErgodicComponent]:
    """Decompose into orbit closures of the two-generator action.

    Components are returned in order of their smallest point; masses sum to 1
    and mass-weighted conditional measures reassemble the original weights.
    """
    out = []
    for block in partition_st(sys).blocks():
        mass = sum((sys.weights[x] for x in block), Fraction(0))
        out.append(
            ErgodicComponent(
                support=tuple(block),
                weights=tuple(sys.weights[x] / mass for x in block),
                mass=mass,
            )
        )
    return out


# -- serialization ---------------------------------------------------------


class SystemFormatError(ValueError):
    """A system document is malformed; the message names the violated field."""


def system_to_dict(sys: FiniteMPS) -> dict:
    return {
        "n": sys.n,
        "weights": [format_fraction(w) for w in sys.weights],
        "S": list(sys.S),
        "T": list(sys.T),
    }


def _is_int(value) -> bool:
    # bool is a subclass of int, but true/false are not point indices
    return isinstance(value, int) and not isinstance(value, bool)


def system_from_dict(doc: dict) -> FiniteMPS:
    if not isinstance(doc, dict):
        raise SystemFormatError(f"expected a JSON object, got {type(doc).__name__}")
    for key in ("n", "weights", "S", "T"):
        if key not in doc:
            raise SystemFormatError(f"missing field: {key}")
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise SystemFormatError("n: expected a positive integer")
    for name in ("weights", "S", "T"):
        if not isinstance(doc[name], list):
            raise SystemFormatError(f"{name}: expected a list, got {type(doc[name]).__name__}")
    if len(doc["weights"]) != n:
        raise SystemFormatError(f"weights: expected {n} entries, got {len(doc['weights'])}")
    try:
        weights = [parse_rational(str(w)) for w in doc["weights"]]
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemFormatError(f"weights: not a p/q rational ({exc})") from exc
    for name in ("S", "T"):
        if len(doc[name]) != n or not all(_is_int(v) for v in doc[name]):
            raise SystemFormatError(f"{name}: expected {n} integer entries")
    try:
        return FiniteMPS(weights, doc["S"], doc["T"])
    except InvalidSystemError as exc:
        raise SystemFormatError(str(exc)) from exc


# -- stock systems and seeded generators ------------------------------------


def translation_system(a: int, b: int, s: Tuple[int, int], t: Tuple[int, int]) -> FiniteMPS:
    """Z_a x Z_b, uniformly weighted, with S = +s and T = +t (all
    translations commute).

    Points are indexed row-major: (u, v) -> u*b + v.
    """

    def shift(d):
        du, dv = d
        return [((u + du) % a) * b + ((v + dv) % b) for u in range(a) for v in range(b)]

    return FiniteMPS([Fraction(1, a * b)] * (a * b), shift(s), shift(t))


def z4_diagonal() -> FiniteMPS:
    """Z_4 with S = T = +1 — the smallest interesting non-magic system."""
    return translation_system(4, 1, (1, 0), (1, 0))


def product_grid(a: int = 2, b: int = 3) -> FiniteMPS:
    """Z_a x Z_b with S moving only the first coordinate and T only the second."""
    return translation_system(a, b, (1, 0), (0, 1))


def diagonal_grid(a: int = 2, b: int = 3) -> FiniteMPS:
    """Z_a x Z_b with S = +(1,1) and T = +(0,1): ergodic but not free."""
    return translation_system(a, b, (1, 1), (0, 1))


def product_system(first: FiniteMPS, second: FiniteMPS) -> FiniteMPS:
    """Direct product: S and T act coordinate-wise, weights multiply.

    Points are indexed row-major: (x, y) -> x*second.n + y.
    """
    m = second.n
    n = first.n * m
    weights = [Fraction(0)] * n
    S = [0] * n
    T = [0] * n
    for x in range(first.n):
        for y in range(m):
            weights[x * m + y] = first.weights[x] * second.weights[y]
            S[x * m + y] = first.S[x] * m + second.S[y]
            T[x * m + y] = first.T[x] * m + second.T[y]
    return FiniteMPS(weights, S, T)


def _random_masses(rng: Random, k: int) -> List[Fraction]:
    parts = [rng.randint(1, 5) for _ in range(k)]
    total = sum(parts)
    return [Fraction(p, total) for p in parts]


def random_system(rng: Random, max_order: int = 4, max_components: int = 2) -> FiniteMPS:
    """A seeded union of translation systems with orbit-wise re-weighting.

    Weights must be constant on orbits of the action to be preserved; the
    generator re-weights exactly at that granularity, so the family covers
    non-uniform and non-ergodic systems.
    """
    k = rng.randint(1, max_components)
    pieces = []
    for _ in range(k):
        a, b = rng.randint(1, max_order), rng.randint(1, max_order)
        s = (rng.randrange(a), rng.randrange(b))
        t = (rng.randrange(a), rng.randrange(b))
        pieces.append(translation_system(a, b, s, t))
    sizes = [p.n for p in pieces]
    offset = [0]
    for size in sizes:
        offset.append(offset[-1] + size)
    n = offset[-1]
    S = [0] * n
    T = [0] * n
    for p, off in zip(pieces, offset):
        for x in range(p.n):
            S[off + x] = off + p.S[x]
            T[off + x] = off + p.T[x]
    # Re-weight across the orbits of the glued action.
    glued = FiniteMPS([Fraction(1, n)] * n, S, T)
    orbits = invariant_partition(glued, [S_GEN, T_GEN]).blocks()
    masses = _random_masses(rng, len(orbits))
    weights = [Fraction(0)] * n
    for orbit, mass in zip(orbits, masses):
        for x in orbit:
            weights[x] = mass / len(orbit)
    return FiniteMPS(weights, S, T)


def random_ergodic_system(rng: Random, max_order: int = 4) -> FiniteMPS:
    """A seeded transitive translation system with S != id and T != id."""
    while True:
        a, b = rng.randint(1, max_order), rng.randint(1, max_order)
        if a * b < 2:
            continue
        s = (rng.randrange(a), rng.randrange(b))
        t = (rng.randrange(a), rng.randrange(b))
        if s == (0, 0) or t == (0, 0):
            continue
        sys = translation_system(a, b, s, t)
        if is_ergodic(sys):
            return sys


def random_product_system(rng: Random, max_order: int = 4) -> FiniteMPS:
    """A seeded product system (rotation x rotation), randomly relabeled.

    These are ergodic, free, and carry the product structure that makes the
    invariant-algebra decomposition split cleanly, so they serve as stock
    "nice" systems in sweeps.
    """
    a, b = rng.randint(2, max_order), rng.randint(2, max_order)
    base = product_grid(a, b)
    relabel = list(range(base.n))
    rng.shuffle(relabel)
    inverse = [0] * base.n
    for x, y in enumerate(relabel):
        inverse[y] = x
    weights = [base.weights[inverse[y]] for y in range(base.n)]
    S = [relabel[base.S[inverse[y]]] for y in range(base.n)]
    T = [relabel[base.T[inverse[y]]] for y in range(base.n)]
    return FiniteMPS(weights, S, T)
