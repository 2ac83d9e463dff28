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
mu_{S,T}((a,b),(c,d)) = mu_S(a,b) mu_S(c,d) / mu_S(C) on C x C.  So its
integrals are sum_C L_C R_C / mu_S(C), summed in ints over one denominator
at the cost of |supp mu_S| (`host_integral`), and its quadruples are listed
only on demand (`HostMeasure.mu_st`).

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

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


def apply_rule(sys: FiniteMPS, rule: Tuple[GroupElement, ...], point: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(sys.apply(g, x) for g, x in zip(rule, point))


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
    """The four-fold joining mu_{S,T}, kept in factored form.

    `orbits` lists the (T x T)-orbits of the support of mu_S, as pair lists,
    and `block_mass` gives each orbit's mu_S-mass.  These carry all of
    mu_{S,T}; its quadruples, `mu_st`, are built on first access only.
    """

    mu_s: SparseMeasure
    block_mass: Tuple[Fraction, ...]
    orbits: Tuple[Tuple[Tuple[int, int], ...], ...]

    def quadruple_support(self) -> Set[Quad]:
        """supp mu_{S,T}: the quadruples p + q for pairs p, q in one orbit,
        listed without computing their masses."""
        return {p + q for orbit in self.orbits for p in orbit for q in orbit}

    @cached_property
    def mu_st(self) -> SparseMeasure:
        entries: Dict[Tuple[int, ...], Fraction] = {}
        for orbit, mass in zip(self.orbits, self.block_mass):
            for p in orbit:
                wp = self.mu_s.entries[p]
                for q in orbit:
                    entries[p + q] = wp * self.mu_s.entries[q] / mass
        return SparseMeasure(4, self.mu_s.n, entries)


def host_measure(sys: FiniteMPS) -> HostMeasure:
    """Relative independent square of mu_S over the (T x T)-invariant algebra.

    mu_{S,T}((a,b),(c,d)) = mu_S(a,b) mu_S(c,d) / mu_S(C) for pairs (a,b) and
    (c,d) in a common (T x T)-orbit C on the support of mu_S.  Built once per
    system and memoized on it.
    """
    return sys.cached("host_measure", _build_host_measure, sys)


def _build_host_measure(sys: FiniteMPS) -> HostMeasure:
    mu_s = rel_indep_square(sys)
    seen = set()
    orbits: List[Tuple[Tuple[int, int], ...]] = []
    for pair in mu_s.support():
        if pair in seen:
            continue
        orbit = []
        cur = pair
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = (sys.T[cur[0]], sys.T[cur[1]])
        orbits.append(tuple(orbit))
    nums, d = common_denominator(mu_s.entries.values())
    weight = dict(zip(mu_s.entries, nums))
    return HostMeasure(
        mu_s=mu_s,
        block_mass=tuple(Fraction(sum(weight[p] for p in orbit), d) for orbit in orbits),
        orbits=tuple(orbits),
    )


def host_integral(hm: HostMeasure, fs: Sequence[Observable]) -> Fraction:
    """Exact integral of f1 x f2 x f3 x f4 against mu_{S,T}: sum_C L_C R_C / mu_S(C),
    with L_C, R_C the orbit sums of mu_S(a,b) f1(a) f2(b) and mu_S(a,b) f3(a) f4(b).
    mu_S, each observable (`Observable.scaled`) and the 1/mu_S(C) are put over
    one denominator each."""
    if len(fs) != 4 or any(f.n != hm.mu_s.n for f in fs):
        raise DimensionError(f"need 4 observables on {hm.mu_s.n} points")
    nums, d = common_denominator(hm.mu_s.entries.values())
    weight = dict(zip(hm.mu_s.entries, nums))
    inverse_mass, e = common_denominator(1 / mass for mass in hm.block_mass)
    (f1, d1), (f2, d2), (f3, d3), (f4, d4) = (f.scaled for f in fs)
    total = 0
    for orbit, inverse in zip(hm.orbits, inverse_mass):
        left = sum(weight[p] * f1[p[0]] * f2[p[1]] for p in orbit)
        right = sum(weight[p] * f3[p[0]] * f4[p[1]] for p in orbit)
        total += left * right * inverse
    return Fraction(total, d * d * e * d1 * d2 * d3 * d4)


class SeminormValue(NamedTuple):
    fourth_power: Fraction  # exact
    fourth_root: float      # diagnostic only

    @staticmethod
    def of(fourth_power: Fraction) -> "SeminormValue":
        return SeminormValue(fourth_power, float(fourth_power) ** 0.25)


def host_seminorm(hm: HostMeasure, f: Observable) -> SeminormValue:
    """|||f|||^4 = integral of f x f x f x f against mu_{S,T} (exact)."""
    return SeminormValue.of(host_integral(hm, (f, f, f, f)))


def _mean_zero_basis(sys: FiniteMPS, part: Partition) -> List[Observable]:
    """Basis of {f : E(f|part) = 0}: weight-normalized indicator differences.

    Within a block, e_x / w(x) - e_y / w(y) has zero block average for any
    weights; plain differences would only work in the uniform case.
    """
    basis = []
    for block in part.blocks():
        anchor = block[0]
        for x in block[1:]:
            vals = [Fraction(0)] * sys.n
            vals[x] = 1 / sys.weights[x]
            vals[anchor] = -1 / sys.weights[anchor]
            basis.append(Observable(tuple(vals)))
    return basis


def seminorm_kernel_basis(hm: HostMeasure) -> List[Observable]:
    """Exact basis of {f : |||f||| = 0}.

    The kernel is the null space of the linear slice map
    f -> (sum_x f(x) mu_{S,T}(x, y1, y2, y3)) indexed by (y1, y2, y3):
    membership makes the defining integral vanish by expanding the last three
    slots, and the reverse containment is the quartic Cauchy-Schwarz
    inequality applied with indicators (tested separately).
    """
    n = hm.mu_st.n
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

    Both directions are checked on finite bases: the mean-zero space is
    spanned by per-block indicator differences, and vanishing of a seminorm
    is a subspace condition, so basis checks decide the inclusions.
    """
    hm = host_measure(sys)
    w_part = invariant_w(sys)
    mean_zero = _mean_zero_basis(sys, w_part)
    kernel = seminorm_kernel_basis(hm)
    verdict = True
    counterexample = None
    direction = None
    for g in mean_zero:
        if host_seminorm(hm, g).fourth_power != 0:
            verdict, counterexample = False, g
            direction = "mean-zero observable with positive seminorm"
            break
    if verdict:
        for h in kernel:
            if any(v != 0 for v in cond_exp(sys, h, w_part).values):
                verdict, counterexample = False, h
                direction = "seminorm-kernel observable with nonzero conditional expectation"
                break
    return MagicReport(
        is_magic=verdict,
        counterexample=counterexample,
        direction=direction,
        seminorm_kernel_dim=len(kernel),
        mean_zero_dim=len(mean_zero),
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
    base: FiniteMPS
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
        [index[apply_rule(sys, S_STAR, q)] for q in quads],
        [index[apply_rule(sys, T_STAR, q)] for q in quads],
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
        base=sys,
        system=fiber,
        quadruples=tuple(quads),
        factor=tuple(q[3] for q in quads),
        mass=mass,
        components=(ComponentSummary(size, mass, magic, free.free, True, None), *rest),
    )


def measurability_check(sys: FiniteMPS) -> bool:
    """Verify E(f0 x f1 | I_{TxT}) = E(E(f0|W) x E(f1|W) | I_{TxT}) exactly.

    Checking the identity for all pairs of indicator observables (a spanning
    family, by bilinearity) is the same as checking, per (T x T)-orbit C, that
    spreading mu_S|_C over W-block products leaves it fixed; the latter is a
    single exact measure comparison per orbit.
    """
    hm = host_measure(sys)
    w_part = invariant_w(sys)
    w_blocks = w_part.blocks()
    w_mass = [sum((sys.weights[x] for x in block), Fraction(0)) for block in w_blocks]
    for orbit in hm.orbits:
        spread: Dict[Tuple[int, int], Fraction] = {}
        for (a, b) in orbit:
            w_ab = hm.mu_s.entries[(a, b)]
            ba, bb = w_part.block_of[a], w_part.block_of[b]
            scale = w_ab / (w_mass[ba] * w_mass[bb])
            for x in w_blocks[ba]:
                wx = sys.weights[x] * scale
                for y in w_blocks[bb]:
                    key = (x, y)
                    spread[key] = spread.get(key, Fraction(0)) + wx * sys.weights[y]
        original = {pair: hm.mu_s.entries[pair] for pair in orbit}
        if spread != original:
            return False
    return True
