"""Spaces of orbit quadruples and pairs, and the group that moves them.

The quadruple space of a system collects every pattern
(x, S^i x, T^j x, S^i T^j x); it carries an action by four commuting
permutations (advance each side, or both diagonals).  The module also
provides the one-dimensional pair analogue, the identification of a
product system's quadruple space with a product of pair spaces, and an
empirical engine that measures how fast box averages of point masses
approach a reference measure under any commuting tuple of permutations.
On an ergodic system the cube space is X x Z_a x Z_b, which gives the
engine's deviation from the uniform measure in closed form.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

from .core import DimensionError, PreconditionError, SparseMeasure, common_denominator
from .finite import (
    FiniteMPS,
    GroupElement,
    S_GEN,
    T_GEN,
    check_commuting,
    is_ergodic,
    orbit_partition,
    perm_cycle,
    product_system,
)
from .joinings import S_STAR, T_STAR, cube_over, diagonal_rule, host_measure, rel_indep_square, rule_permutation
from .averaging import ConvergenceReport, box_hits, check_schedule, schedule_report, window_counts

_ID = GroupElement(0, 0)


@dataclass(frozen=True)
class ActionSpace:
    """A finite set of orbit tuples and the commuting transforms that move
    it, each kept by name as a permutation of point indices."""

    points: Tuple[Tuple[int, ...], ...]
    index_of: Dict[Tuple[int, ...], int]
    perms: Dict[str, Tuple[int, ...]]

    @property
    def size(self) -> int:
        return len(self.points)

    def orbits(self) -> List[Tuple[int, ...]]:
        """Orbits of the transform group on point indices, by smallest member."""
        return orbit_partition(self.perms.values(), self.size).blocks()

    def uniform_measure(self) -> SparseMeasure:
        """Uniform probability on point indices: the only candidate invariant
        measure when the transform group is transitive."""
        mass = Fraction(1, self.size)
        return SparseMeasure(arity=1, n=self.size, entries={(k,): mass for k in range(self.size)})


def _action_space(
    sys: FiniteMPS, points: Sequence[Tuple[int, ...]], rules: Dict[str, Tuple[GroupElement, ...]]
) -> ActionSpace:
    """`points` with each named coordinate rule built as a permutation of
    their indices; `rule_permutation` raises if a rule leaves the points."""
    index_of = {p: k for k, p in enumerate(points)}
    perms = {name: rule_permutation(sys, name, rule, index_of) for name, rule in rules.items()}
    return ActionSpace(tuple(points), index_of, perms)


def cube_space(sys: FiniteMPS) -> ActionSpace:
    """All quadruples (x, S^i x, T^j x, S^i T^j x), with the four-transform
    action: the cubes over every point, in order."""
    points = [q for x in range(sys.n) for q in cube_over(sys, x)]
    rules = {"side_s": S_STAR, "side_t": T_STAR, "diag_s": diagonal_rule(S_GEN), "diag_t": diagonal_rule(T_GEN)}
    return _action_space(sys, points, rules)


def two_sided_cube(sys: FiniteMPS, g: GroupElement) -> ActionSpace:
    """All pairs (x, g^i x), with one side transform and both diagonals."""
    perm = sys.group_perm(g)
    pairs = sorted({(x, y) for x in range(sys.n) for y in perm_cycle(perm, x)})
    return _action_space(sys, pairs, {"side": (_ID, g), "diag_s": (S_GEN, S_GEN), "diag_t": (T_GEN, T_GEN)})


PairKey = Tuple[Tuple[int, int], Tuple[int, int]]


@dataclass(frozen=True)
class ProductCubeReport:
    """Outcome of identifying a product system's quadruple space with the
    product of its factors' pair spaces."""

    cube_size: int
    first_pair_size: int
    second_pair_size: int
    bijective: bool
    intertwines: bool          # each cube transform matches a factor-pair transform
    measure_matches: bool      # pushforward of the quadruple measure is the product

    @property
    def identified(self) -> bool:
        return self.bijective and self.intertwines and self.measure_matches


def _transpose(sys: FiniteMPS) -> FiniteMPS:
    return FiniteMPS(list(sys.weights), list(sys.T), list(sys.S))


def product_cube_identification(first: FiniteMPS, second: FiniteMPS) -> ProductCubeReport:
    """Identify Q(first x second) with pairs(first) x pairs(second).

    Requires `first` to move only under S (its T is the identity), `second`
    only under T, and both to be ergodic.  The map sends the quadruple of
    product points with base (y, w), offsets (i, j) to ((y, S^i y), (w, T^j w));
    the check confirms it is a bijection, that the four quadruple transforms
    act as side/diagonal moves on the factor pairs, and that the quadruple
    measure pushes forward to the product of the two pair measures.
    """
    if any(second_gen != k for k, second_gen in enumerate(first.T)):
        raise PreconditionError("first factor must have T = identity")
    if any(first_gen != k for k, first_gen in enumerate(second.S)):
        raise PreconditionError("second factor must have S = identity")
    if not is_ergodic(first):
        raise PreconditionError("first factor must be ergodic")
    if not is_ergodic(second):
        raise PreconditionError("second factor must be ergodic")
    prod = product_system(first, second)
    space = cube_space(prod)
    m = second.n

    def phi(quad: Tuple[int, ...]) -> PairKey:
        (y0, w0), (y1, w1), (y2, w2), (y3, w3) = (divmod(p, m) for p in quad)
        if (w1, y2, y3, w3) != (w0, y0, y1, w2):
            raise ValueError(f"quadruple {quad} lacks product structure")
        return ((y0, y1), (w0, w2))

    y_pairs = two_sided_cube(first, S_GEN)
    w_pairs = two_sided_cube(second, T_GEN)
    images = {quad: phi(quad) for quad in space.points}
    keys = [(y_pairs.index_of.get(y), w_pairs.index_of.get(w)) for y, w in images.values()]
    bijective = all(None not in key for key in keys) and len(set(keys)) == space.size == y_pairs.size * w_pairs.size

    intertwines = measure_matches = False
    if bijective:
        # side_s on quadruples advances the first factor's pair side, etc.:
        # quadruple k must move to the key of its moved factor pairs.
        y_id, w_id = range(y_pairs.size), range(w_pairs.size)
        moves = (
            (space.perms["side_s"], y_pairs.perms["side"], w_id),
            (space.perms["side_t"], y_id, w_pairs.perms["side"]),
            (space.perms["diag_s"], y_pairs.perms["diag_s"], w_id),
            (space.perms["diag_t"], y_id, w_pairs.perms["diag_t"]),
        )
        intertwines = all(
            keys[perm[k]] == (y_move[y], w_move[w]) for perm, y_move, w_move in moves for k, (y, w) in enumerate(keys)
        )
        hm = host_measure(prod)
        pushed: Dict[PairKey, int] = {}
        for quad, mass in hm.scaled_masses():
            key = images[quad]
            pushed[key] = pushed.get(key, 0) + mass
        y_measure = rel_indep_square(first)
        w_measure = rel_indep_square(_transpose(second))
        tensor = {
            (yp, wp): y_mass * w_mass
            for yp, y_mass in y_measure.entries.items()
            for wp, w_mass in w_measure.entries.items()
        }
        measure_matches = {key: Fraction(v, hm.den) for key, v in pushed.items()} == tensor

    return ProductCubeReport(
        cube_size=space.size,
        first_pair_size=y_pairs.size,
        second_pair_size=w_pairs.size,
        bijective=bijective,
        intertwines=intertwines,
        measure_matches=measure_matches,
    )


def empirical_unique_ergodicity(
    perms: Sequence[Tuple[int, ...]],
    reference: SparseMeasure,
    starts: Union[str, Sequence[int]],
    schedule: Sequence[int],
) -> ConvergenceReport:
    """Deviation of box-averaged point masses from a reference measure.

    For each start x and window size N the empirical measure puts mass
    1/N^d on g_1^{i_1} ... g_d^{i_d} x for every exponent tuple in [0, N)^d;
    the reported value is the worst (over starts) total-variation distance to
    the reference.  Everything is exact: the orbit point depends only on the
    exponents modulo the generator cycle lengths, which are constant along a
    joint orbit because the generators commute.
    """
    if reference.arity != 1:
        raise DimensionError(f"reference must have arity 1, got {reference.arity}")
    m = reference.n
    if not perms:
        raise ValueError("need at least one generator")
    perms = check_commuting(perms, m, [f"generator {k}" for k in range(len(perms))])
    if isinstance(starts, str):
        if starts != "all":
            raise ValueError(f"starts must be 'all' or a list of points, got {starts!r}")
        start_list = list(range(m))
    else:
        start_list = list(starts)
        for x in start_list:
            if not (0 <= x < m):
                raise DimensionError(f"start point {x} outside 0..{m - 1}")
    if not start_list:
        raise ValueError("need at least one start point")
    check_schedule(schedule)

    d = len(perms)
    ref_nums, ref_den = common_denominator(reference.entries.values())
    ref = {p: v for (p,), v in zip(reference.entries, ref_nums)}
    # The generators commute, so each one's cycle length is the same at
    # every point of a box.
    boxes = [(x, [len(perm_cycle(perm, x)) for perm in perms]) for x in start_list]

    def deviation(N: int) -> Fraction:
        # worst: twice the total-variation distance, times N^d * ref_den.
        worst, volume = 0, N**d
        for x, periods in boxes:
            hits = box_hits(lambda t, p: perms[t][p], x, periods, N)
            worst = max(worst, sum(abs(hits.get(p, 0) * ref_den - ref.get(p, 0) * volume) for p in hits.keys() | ref.keys()))
        return Fraction(worst, 2 * volume * ref_den)

    metadata = {"kind": "empirical_unique_ergodicity", "points": m, "generators": d, "starts": len(start_list)}
    return schedule_report(schedule, deviation, Fraction(0), metadata)


def uniform_cube_deviation(sys: FiniteMPS, N: int) -> Fraction:
    """`empirical_unique_ergodicity` at window size N on the cube space of an
    ergodic system and its uniform measure, from any start.  The space is
    X x Z_a x Z_b: side moves shift (i mod a, j mod b) and diagonals move the
    base, so the box hits factor as h(y) c_a(i) c_b(j)."""
    if N < 1:
        raise ValueError(f"window size must be positive, got {N}")
    if not is_ergodic(sys):
        raise PreconditionError("the uniform cube deviation needs an ergodic system")
    a, b = sys.orbit_grid(0)[:2]
    h = Counter(box_hits(lambda t, p: sys.T[p] if t else sys.S[p], 0, (a, b), N).values())
    h[0] = sys.n - sum(h.values())  # the points the base box misses
    cells = itertools.product(h.items(), Counter(window_counts(N, a)).items(), Counter(window_counts(N, b)).items())
    size, volume = sys.n * a * b, N**4
    total = sum(mh * ma * mb * abs(vh * va * vb * size - volume) for (vh, mh), (va, ma), (vb, mb) in cells)
    return Fraction(total, 2 * volume * size)
