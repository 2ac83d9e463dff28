"""Self-joinings of a finite system along its invariant algebras.

The central objects: the relative independent square of mu over the algebra
of S-invariant sets, the four-fold measure obtained by repeating that
construction over the (T x T)-invariant algebra, the quartic seminorm that
measure induces, and the magic extension, which turns any ergodic system
into one where the seminorm characterizes conditional expectation on the
joint invariant algebra ("magic" systems).

On finite systems invariant algebras are orbit partitions and conditional
expectations are block averages, so every identity here is exact.

The four-fold measure factors over the (T x T)-orbits C of supp mu_S, as
mu_{S,T}(p, q) = mu_S(p) mu_S(q) / mu_S(C) on C x C, and is read off one
orbit grid per joint orbit J.  Let y be the first point of J, grid =
orbit_grid(y) with S- and T-cycle lengths a and b, and p = |J| / b.  Row r
is the T-orbit of S^r y, and S^r y is on the T-orbit of y exactly for r in
the subgroup p Z_a, so rows m < p are the p T-orbits of J.  T x T moves j
and keeps k in the pair (grid[m][j], grid[(m + k) % a][j]) = (z, S^k z), so
the orbits in J are C = zip(grid[m], grid[(m + k) % a]) for m < p, k < a,
each of b pairs.  The weights are S- and T-invariant, so they are one u / d
on J, and an S-orbit has a points: mu_S(z, S^k z) = (u/d)^2 / (a u/d) =
u / (d a), mu_S(C) = b u / (d a), and mu_{S,T} = u / (d a b) on every
C x C.  So the integrals sum_C L_C R_C / mu_S(C) are grid-row dot products
summed in ints (`host_integral`), and masses are listed only on demand
(`mu_st`).  The total mass is sum_J p a b^2 u / (d a b) = sum_J |J| u / d = 1.

So supp mu_{S,T}, the union of the C x C, is the cube space on every system.
Two pairs (T^j z, S^k T^j z) and (T^j' z, S^k T^j' z) of one orbit C form
the cube (x, S^k x, T^i x, S^k T^i x), with x = T^j z and i = j' - j.
Conversely the cube (x, S^k x, T^i x, S^k T^i x) is the pair (x, S^k x)
followed by its (T x T)^i image, in the same orbit, and its mass is positive
because every weight is.  This is why `cube` prints its support line as a
constant.

With positive weights the box seminorm is a norm.  Expanding the integral
over the orbits, |||f|||^4 = sum_C L_C^2 / mu_S(C), with L_C the orbit sum
of mu_S(a,b) f(a) f(b), and every term is nonnegative.  The orbit of a
diagonal pair (y, y) (k = 0 above) has L_C = sum_j mu_S(T^j y, T^j y)
f(T^j y)^2, and mu_S(z, z) = w(z)^2 / w(O) > 0, so |||f||| = 0 forces f = 0
on every T-orbit.  A magic system, whose seminorm kernel is {f : E(f|W) =
0}, therefore has only f = 0 there: every W-block is one point, W is
discrete and E(f|W) = f.  The invariant pairing is measurable in the same
case (`measurability_check`).

The magic extension needs none of mu_{S,T}.  Host's construction splits it
into ergodic components under S* = id x S x id x S and T* = id x id x T x T,
and on a finite ergodic base these are known in closed form:
- every point of supp mu_{S,T} is a cube (x, S^i x, T^j x, S^i T^j x);
- S* and T* fix x and move (i, j) to (i+1, j) and (i, j+1), so the
  components are exactly the n fibers, the cubes over each x (`cube_over`);
- the fiber over x has mass w(x) and conditional weights 1/(a b), a and b
  the S- and T-cycle lengths, and an ergodic base has uniform weights;
- g x g x g x g maps the fiber over x onto the fiber over g x and commutes
  with S* and T*, so every fiber gets the same verdicts, and ordering by
  decreasing mass, then smallest support, picks point 0 whenever any passes.
"""

from __future__ import annotations

from math import lcm, prod
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .core import (
    DimensionError,
    Observable,
    Partition,
    PreconditionError,
    SparseMeasure,
    common_denominator,
    common_refinement,
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
from .linalg import exact_null_space

Quad = Tuple[int, int, int, int]

# Coordinate-wise transformation rules on quadruples: entry k is the group
# element applied to coordinate k.  These are the maps the four-fold measure
# is invariant under.
_ID = GroupElement(0, 0)
_S = GroupElement(1, 0)
_T = GroupElement(0, 1)
S_STAR: Tuple[GroupElement, ...] = (_ID, _S, _ID, _S)
T_STAR: Tuple[GroupElement, ...] = (_ID, _ID, _T, _T)


def diagonal_rule(g: GroupElement) -> Tuple[GroupElement, ...]:
    return (g, g, g, g)


def rule_permutation(
    sys: FiniteMPS, name: str, rule: Tuple[GroupElement, ...], index_of: Dict[Tuple[int, ...], int]
) -> Tuple[int, ...]:
    """The coordinate rule `name` as a permutation of indexed tuples: entry k
    is the index of the image of the k-th tuple, whose coordinate c moves by
    rule[c].  `index_of` maps each tuple to its index, listed in index order."""
    moves = [sys.group_perm(g) for g in rule]
    perm = []
    for point in index_of:
        image = index_of.get(tuple(move[x] for move, x in zip(moves, point)))
        if image is None:
            raise ValueError(f"transform {name} leaves the space at {point}")
        perm.append(image)
    return tuple(perm)


def cube_over(sys: FiniteMPS, x: int) -> List[Quad]:
    """The cube over x: the quadruples (x, S^i x, T^j x, S^i T^j x) for
    i < a_x and j < b_x, sorted.  The pair (S^i x, T^j x) fixes i mod a_x
    and j mod b_x, so there are a_x b_x of them."""
    _, _, grid = sys.orbit_grid(x)
    return sorted((x, row[0], t, st) for row in grid for t, st in zip(grid[0], row))


def cond_exp(sys: FiniteMPS, f: Observable, part: Partition) -> Observable:
    """Conditional expectation onto a partition: the weighted block average."""
    if f.n != sys.n or part.n != sys.n:
        raise PreconditionError(f"size mismatch: system {sys.n}, observable {f.n}, partition {part.n}")
    num = [Fraction(0)] * part.num_blocks
    den = [Fraction(0)] * part.num_blocks
    for x in range(sys.n):
        b = part.block_of[x]
        num[b] += sys.weights[x] * f.values[x]
        den[b] += sys.weights[x]
    per_block = [num[b] / den[b] for b in range(part.num_blocks)]
    return Observable(tuple(per_block[part.block_of[x]] for x in range(sys.n)))


def invariant_w(sys: FiniteMPS) -> Partition:
    """The joint invariant partition W: common refinement of the S- and T-orbits."""
    return sys.cached("W", common_refinement, partition_s(sys), partition_t(sys))


def rel_indep_square(sys: FiniteMPS) -> SparseMeasure:
    """Relative independent square of mu over the S-invariant algebra.

    Supported on pairs within a common S-orbit B, with weight
    w(x0) w(x1) / w(B); its defining property
    integral of f0 x f1 = integral of E(f0|I_S) E(f1|I_S) d mu
    is asserted in tests.  With the weights as integers u over one
    denominator d, each entry is the one Fraction u(x0) u(x1) / (d u(B)).
    """
    nums, d = common_denominator(sys.weights)
    entries: Dict[Tuple[int, ...], Fraction] = {}
    for block in partition_s(sys).blocks():
        scale = d * sum(nums[x] for x in block)
        for x0 in block:
            for x1 in block:
                entries[(x0, x1)] = Fraction(nums[x0] * nums[x1], scale)
    return SparseMeasure(2, sys.n, entries)


@dataclass(frozen=True)
class HostMeasure:
    """mu_{S,T} factored in integers; its masses `mu_st` are listed on first access.

    `parts` holds one (mass, p, grid) per joint orbit J: `grid` is the orbit
    grid of the first point of J, a x b, and rows m < p are the T-orbits of J.
    The (T x T)-orbits of supp mu_S in J are zip(grid[m], grid[(m + k) % a])
    for m < p, k < a, and mu_{S,T} is u / (d a b) on each C x C, u / d the
    weight on J (see the module docstring).  With L the lcm of the a b,
    `den` = d L and `mass` = u L / (a b), so mu_{S,T} = mass / den on C x C.
    """

    n: int
    den: int
    parts: Tuple[Tuple[int, int, Tuple[Tuple[int, ...], ...]], ...]

    def orbits(self) -> Iterator[Tuple[int, Tuple[Tuple[int, int], ...]]]:
        """(mass, C) for each (T x T)-orbit C of supp mu_S, C as its pair list."""
        for mass, p, grid in self.parts:
            a = len(grid)
            for m in range(p):
                for k in range(a):
                    yield mass, tuple(zip(grid[m], grid[(m + k) % a]))

    def quadruple_support(self) -> Set[Quad]:
        """supp mu_{S,T}: the quadruples p + q for pairs p, q in one orbit,
        listed without computing their masses."""
        return {p + q for _, orbit in self.orbits() for p in orbit for q in orbit}

    def scaled_masses(self) -> Iterator[Tuple[Quad, int]]:
        """(p + q, mass) for the pairs p, q of each orbit C, orbit by orbit:
        the masses of mu_{S,T} times `den`."""
        for mass, orbit in self.orbits():
            yield from ((p + q, mass) for p in orbit for q in orbit)

    @cached_property
    def mu_st(self) -> SparseMeasure:
        return SparseMeasure(4, self.n, {quad: Fraction(mass, self.den) for quad, mass in self.scaled_masses()})


def host_measure(sys: FiniteMPS) -> HostMeasure:
    """Relative independent square of mu_S over the (T x T)-invariant algebra
    (`HostMeasure`), built once per system and memoized on it."""
    return sys.cached("host_measure", _build_host_measure, sys)


def _build_host_measure(sys: FiniteMPS) -> HostMeasure:
    u, d = common_denominator(sys.weights)
    joint = [(block, *sys.orbit_grid(block[0])) for block in partition_st(sys).blocks()]
    common = lcm(*(a * b for _, a, b, _ in joint))
    parts = tuple((u[block[0]] * (common // (a * b)), len(block) // b, grid) for block, a, b, grid in joint)
    return HostMeasure(sys.n, d * common, parts)


def host_integral(hm: HostMeasure, fs: Sequence[Observable], part: Optional[int] = None) -> Fraction:
    """Exact integral of f1 x f2 x f3 x f4 against mu_{S,T}, or on J^4 alone, J the joint orbit of hm.parts[part].

    On C x C the mass is constant, so the integral over it is mass times
    <F1[m], F2[r]> <F3[m], F4[r]>, F_i the numerators of f_i (`Observable.scaled`)
    along the grid rows and r = (m + k) % a; k < a runs r over every row.  Each
    distinct observable is mapped onto the rows once, and when (f3, f4) is
    (f1, f2), as for the seminorm, the one dot product is squared.  All of it
    is summed in ints over den d1 d2 d3 d4."""
    if len(fs) != 4 or any(f.n != hm.n for f in fs):
        raise DimensionError(f"need 4 observables on {hm.n} points")
    if part is not None and not 0 <= part < len(hm.parts):
        raise DimensionError(f"joint orbit index {part} is not in 0..{len(hm.parts) - 1}")
    slots = [fs.index(f) for f in fs]  # the first argument equal to each
    nums = [f.scaled[0] for f in fs]
    total = 0
    for mass, p, grid in hm.parts if part is None else (hm.parts[part],):
        rows = {k: [[nums[k][x] for x in row] for row in grid] for k in set(slots)}
        r1, r2, r3, r4 = (rows[k] for k in slots)
        if slots[2:] == slots[:2]:
            total += mass * sum(sum(map(mul, r1[m], row2)) ** 2 for m in range(p) for row2 in r2)
        else:
            total += mass * sum(
                sum(map(mul, r1[m], row2)) * sum(map(mul, r3[m], row4)) for m in range(p) for row2, row4 in zip(r2, r4)
            )
    return Fraction(total, hm.den * prod(f.scaled[1] for f in fs))


class SeminormValue(NamedTuple):
    fourth_power: Fraction  # exact
    fourth_root: float      # diagnostic only

    @staticmethod
    def of(fourth_power: Fraction) -> "SeminormValue":
        return SeminormValue(fourth_power, float(fourth_power) ** 0.25)


def host_seminorm(hm: HostMeasure, f: Observable) -> SeminormValue:
    """|||f|||^4 = integral of f x f x f x f against mu_{S,T} (exact)."""
    return SeminormValue.of(host_integral(hm, (f, f, f, f)))


def seminorm_kernel_basis(hm: HostMeasure) -> List[Observable]:
    """Exact basis of {f : |||f||| = 0}.

    The kernel is the null space of the linear slice map
    f -> (sum_x f(x) mu_{S,T}(x, y1, y2, y3)) indexed by (y1, y2, y3):
    membership makes the defining integral vanish by expanding the last three
    slots, and the reverse containment is the quartic Cauchy-Schwarz
    inequality applied with indicators (tested separately).
    """
    n = hm.n
    row_map: Dict[Tuple[int, int, int], List[Fraction]] = {}
    for quad, w in hm.mu_st.entries.items():
        key = quad[1:]
        row = row_map.get(key)
        if row is None:
            row = [Fraction(0)] * n
            row_map[key] = row
        row[quad[0]] += w
    rows = [row_map[k] for k in sorted(row_map)]
    return [Observable(vec) for vec in exact_null_space(rows, n)]


@dataclass(frozen=True)
class MagicReport:
    is_magic: bool
    counterexample: Optional[Observable]
    direction: Optional[str]
    seminorm_kernel_dim: int
    mean_zero_dim: int


def is_magic(sys: FiniteMPS) -> MagicReport:
    """Decide whether |||f||| = 0 exactly characterizes E(f|W) = 0.

    The box seminorm is a norm (see the module docstring), so the system is
    magic exactly when W is discrete, and the mean-zero space {f : E(f|W) =
    0} has dimension n - |W|.  When W is not discrete, the counterexample
    e_x / w(x) - e_y / w(y), y < x the first two points of the first W-block
    with two, has zero block averages and, being nonzero, a positive
    seminorm.  The seminorm kernel's dimension is the length of its exact
    basis, which is structure, memoized on the system; the verdict is not.
    """
    w_part = invariant_w(sys)
    kernel = sys.cached("kernel", seminorm_kernel_basis, host_measure(sys))
    pair = next((block[:2] for block in w_part.blocks() if len(block) > 1), None)
    counterexample = None
    if pair is not None:
        y, x = pair
        vals = [Fraction(0)] * sys.n
        vals[x], vals[y] = 1 / sys.weights[x], -1 / sys.weights[y]
        counterexample = Observable(tuple(vals))
    return MagicReport(
        is_magic=pair is None,
        counterexample=counterexample,
        direction=None if pair is None else "mean-zero observable with positive seminorm",
        seminorm_kernel_dim=len(kernel),
        mean_zero_dim=sys.n - w_part.num_blocks,
    )


class ExtensionConstructionError(RuntimeError):
    """The fiber over point 0, and with it every fiber, failed the checks.

    This should never fire on a valid ergodic input; if it does, the
    reasons carried in the message are the bug report.
    """


@dataclass(frozen=True)
class ComponentSummary:
    size: int
    mass: Fraction
    magic: Optional[bool]       # None when selection stopped before evaluating
    free: Optional[bool]
    selected: bool
    rejection: Optional[str]


@dataclass(frozen=True)
class MagicExtension:
    system: FiniteMPS                       # the selected component
    quadruples: Tuple[Quad, ...]            # extension point k sits over quadruples[k]
    factor: Tuple[int, ...]                 # factor map pi = last coordinate
    mass: Fraction                          # mass of the component inside mu_{S,T}
    components: Tuple[ComponentSummary, ...]


def magic_extension(sys: FiniteMPS) -> MagicExtension:
    """Build a magic, ergodic extension of an ergodic system.

    Host's extension is a component of mu_{S,T} under (S*, T*) that is magic
    (and free, whenever the base has nontrivial S and T), mapped onto the
    base by the last coordinate.  The components are the fibers over the
    first coordinate: S* and T* fix it and move the cube (x, S^i x, T^j x,
    S^i T^j x) to (i+1, j) and (i, j+1).  The fiber over x has mass w(x) and
    weights 1/(a b), and g x g x g x g carries it onto the fiber over g x,
    commuting with S* and T*, so all fibers get the same verdicts and the
    first by decreasing mass, then smallest support, is the one over point 0.
    Only that cube is built and checked, at a cost of a b, not n a b; the
    summary keeps one row per base point, the others "not evaluated".
    """
    if not is_ergodic(sys):
        raise PreconditionError("magic_extension requires an ergodic base system")
    quads = cube_over(sys, 0)
    index = {q: k for k, q in enumerate(quads)}
    fiber = FiniteMPS(
        [Fraction(1, len(quads))] * len(quads),
        rule_permutation(sys, "S*", S_STAR, index),
        rule_permutation(sys, "T*", T_STAR, index),
    )
    magic, free = is_magic(fiber).is_magic, is_free(fiber)
    reasons = [] if magic else ["not magic"]
    if tuple(range(sys.n)) not in (sys.S, sys.T) and not free.free:
        reasons.append(f"not free (witness {free.witness})")
    size, mass = len(quads), sys.weights[0]
    if reasons:
        raise ExtensionConstructionError(
            "no fiber is simultaneously magic and free; a valid fiber should always exist for an "
            f"ergodic base -- details: fiber over point 0 (size={size} mass={mass}): " + ", ".join(reasons)
        )
    rest = (ComponentSummary(size, w, None, None, False, "not evaluated") for w in sys.weights[1:])
    return MagicExtension(
        system=fiber,
        quadruples=tuple(quads),
        factor=tuple(q[3] for q in quads),
        mass=mass,
        components=(ComponentSummary(size, mass, magic, free.free, True, None), *rest),
    )


def measurability_check(sys: FiniteMPS) -> bool:
    """Verify E(f0 x f1 | I_{TxT}) = E(E(f0|W) x E(f1|W) | I_{TxT}) exactly: W is discrete.

    By bilinearity: spreading mu_S|_C over products of W-blocks must leave it
    fixed, for each (T x T)-orbit C.  W refines the S-orbits and mu_S is
    w x w / w(O) on each O x O, so on A x B the spread is m w(x) w(y) / (w(A)
    w(B)), m the mass of C in A x B.  As weights are positive, that is mu_S|_C
    exactly when C meets A x B in 0 or |A| |B| pairs.  A W-block A with |A| >= 2
    lies in one T-orbit, so for x in A the orbit of the diagonal pair (x, x)
    meets A x A in |A| pairs, not |A|^2; a discrete W makes every count 0 or 1.
    """
    return invariant_w(sys).num_blocks == sys.n
