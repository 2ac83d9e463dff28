"""Orbit-tuple spaces, the product identification, and empirical equidistribution."""

from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from ergocubes import cubes
from ergocubes.core import DimensionError, PreconditionError, SparseMeasure
from ergocubes.cubes import (
    cube_space,
    empirical_unique_ergodicity,
    product_cube_identification,
    two_sided_cube,
    uniform_cube_deviation,
)
from ergocubes.finite import (
    FiniteMPS,
    GroupElement,
    S_GEN,
    T_GEN,
    diagonal_grid,
    orbit_partition,
    product_grid,
    product_system,
    random_system,
    translation_system,
    z4_diagonal,
)
from ergocubes.joinings import host_measure, rel_indep_square, rule_permutation
from oracles import cycle_patterns, lattice_unions, lattices, listed_mu_st, listed_pushforward, literal_box_hits, pair_tensor

F = Fraction
ID = GroupElement(0, 0)
# The coordinate rules of the cube and pair transforms, written out: the
# reference for the permutations the spaces carry.
CUBE_RULES = {
    "side_s": (ID, S_GEN, ID, S_GEN),
    "side_t": (ID, ID, T_GEN, T_GEN),
    "diag_s": (S_GEN,) * 4,
    "diag_t": (T_GEN,) * 4,
}


def pair_rules(g):
    return {"side": (ID, g), "diag_s": (S_GEN, S_GEN), "diag_t": (T_GEN, T_GEN)}


def uniform(n):
    return [F(1, n)] * n


class TestCubeSpace:
    def test_z4_cube_is_all_cycle_patterns(self):
        space = cube_space(z4_diagonal())
        assert space.size == 64
        assert all(len(point) == 4 for point in space.points)
        assert set(space.points) == cycle_patterns(4)
        assert len(space.orbits()) == 1

    def test_diagonal_grid_cube(self):
        space = cube_space(diagonal_grid(2, 3))
        assert space.size == 108
        assert len(space.orbits()) == 1

    def test_cube_support_equals_quadruple_measure_support(self):
        rng = Random(211)
        for _ in range(25):
            sys = random_system(rng)
            space = cube_space(sys)
            assert set(space.points) == set(host_measure(sys).mu_st.entries)

    def test_size_counts_the_listed_space(self):
        # the host measure's orbits carry sum |C|^2 quadruples, the size of the
        # listed cube space; `analyze` and `cube` print it as sum_x a_x b_x
        for sys in lattices(9) + lattice_unions(6) + (product_grid(6, 6),):
            assert sum(len(orbit) ** 2 for _, orbit in host_measure(sys).orbits()) == cube_space(sys).size

    def test_size_by_hand(self):
        # Z_6 with S = +1, T = +2: 6 points, each with a 6 x 3 cube
        sys = translation_system(6, 1, (1, 0), (2, 0))
        assert sum(len(orbit) ** 2 for _, orbit in host_measure(sys).orbits()) == 108
        assert cube_space(sys).size == 108

    def test_orbit_built_support_matches_the_listed_quadruples(self):
        for sys in lattices(9) + lattice_unions(6):
            hm = host_measure(sys)
            support = hm.quadruple_support()
            assert support == set(cube_space(sys).points)
            assert "mu_st" not in vars(hm)
            assert support == set(listed_mu_st(sys))

    def test_uniform_measure_matches_quadruple_measure_on_transitive_cubes(self):
        for sys in (z4_diagonal(), diagonal_grid(2, 3), product_grid(2, 3)):
            space = cube_space(sys)
            assert len(space.orbits()) == 1
            hm = host_measure(sys)
            um = space.uniform_measure()
            for quad, mass in hm.mu_st.entries.items():
                assert um.entries[(space.index_of[quad],)] == mass

    def test_transforms_commute_pairwise(self):
        rng = Random(223)
        for _ in range(15):
            sys = random_system(rng, max_order=3)
            space = cube_space(sys)
            perms = list(space.perms.values())
            for pa in perms:
                for pb in perms:
                    assert tuple(pa[pb[k]] for k in range(space.size)) == tuple(
                        pb[pa[k]] for k in range(space.size)
                    )

    def test_orbits_match_a_literal_closure(self):
        # each orbit grown by applying the transforms until nothing new
        # appears, listed by smallest member with its members sorted
        rng = Random(229)
        for _ in range(15):
            sys = random_system(rng, max_order=3, max_components=3)
            for space, rules in ((cube_space(sys), CUBE_RULES), (two_sided_cube(sys, T_GEN), pair_rules(T_GEN))):
                expected, seen = [], set()
                for start in range(space.size):
                    if start in seen:
                        continue
                    orbit, frontier = {start}, [space.points[start]]
                    while frontier:
                        point = frontier.pop()
                        for rule in rules.values():
                            image = space.index_of[tuple(sys.apply(g, x) for g, x in zip(rule, point))]
                            if image not in orbit:
                                orbit.add(image)
                                frontier.append(space.points[image])
                    seen |= orbit
                    expected.append(tuple(sorted(orbit)))
                assert space.orbits() == expected

    def test_named_moves_act_as_expected_on_z4(self):
        space = cube_space(z4_diagonal())
        k = space.index_of[(0, 1, 2, 3)]
        assert {name: space.points[perm[k]] for name, perm in space.perms.items()} == {
            "side_s": (0, 2, 2, 0),
            "side_t": (0, 1, 3, 0),
            "diag_s": (1, 2, 3, 0),
            "diag_t": (1, 2, 3, 0),
        }


class TestTwoSidedCube:
    def test_pairs_match_pair_measure_support(self):
        rng = Random(227)
        for _ in range(25):
            sys = random_system(rng)
            space = two_sided_cube(sys, S_GEN)
            assert set(space.points) == set(rel_indep_square(sys).entries)

    def test_diagonal_grid_pair_count(self):
        # S = +(1,1) is a single 6-cycle, so every ordered pair appears
        assert two_sided_cube(diagonal_grid(2, 3), S_GEN).size == 36

    def test_product_grid_pair_count(self):
        # three S-orbits of size 2: only within-orbit pairs
        assert two_sided_cube(product_grid(2, 3), S_GEN).size == 12

    def test_transforms_preserve_pairs(self):
        sys = diagonal_grid(2, 3)
        space = two_sided_cube(sys, T_GEN)
        for rule in pair_rules(T_GEN).values():
            for pair in space.points:
                assert tuple(sys.apply(g, x) for g, x in zip(rule, pair)) in space.index_of
        for perm in space.perms.values():
            assert sorted(perm) == list(range(space.size))


class TestTransformPermutations:
    def test_cached_permutations_match_a_literal_apply_walk(self):
        # each transform's permutation against its rule applied point by point
        # through sys.apply: the cube space and the pair spaces of S, T and
        # S^2 T^-1 of every type of index <= 9 and every union of index <= 6,
        # each listed without repeats and indexed in order
        spaces = 0
        for sys in lattices(9) + lattice_unions(6):
            pair_spaces = [(two_sided_cube(sys, g), pair_rules(g)) for g in (S_GEN, T_GEN, GroupElement(2, -1))]
            for space, rules in ((cube_space(sys), CUBE_RULES), *pair_spaces):
                assert space.index_of == {point: k for k, point in enumerate(space.points)}
                assert len(space.index_of) == space.size
                assert list(space.perms) == list(rules)
                for name, rule in rules.items():
                    moved = [tuple(sys.apply(g, x) for g, x in zip(rule, point)) for point in space.points]
                    assert space.perms[name] == tuple(space.index_of[image] for image in moved)
                spaces += 1
        assert spaces == 4 * (69 + 226)

    def test_rule_permutation_rejects_a_rule_leaving_the_space(self):
        # (0, 0) moves to (0, 1) under the side rule, and (0, 1) to (0, 2),
        # which is not listed
        sys = z4_diagonal()
        index_of = {(0, 0): 0, (0, 1): 1}
        assert rule_permutation(sys, "stay", (ID, ID), index_of) == (0, 1)
        with pytest.raises(ValueError, match=r"transform side leaves the space at \(0, 1\)"):
            rule_permutation(sys, "side", (ID, S_GEN), index_of)


class TestProductIdentification:
    def test_five_by_three(self):
        first = translation_system(5, 1, (1, 0), (0, 0))
        second = translation_system(3, 1, (0, 0), (1, 0))
        report = product_cube_identification(first, second)
        assert report.identified
        assert report.cube_size == 225
        assert report.first_pair_size == 25
        assert report.second_pair_size == 9
        assert report.cube_size == report.first_pair_size * report.second_pair_size

    def test_two_by_three(self):
        first = translation_system(2, 1, (1, 0), (0, 0))
        second = translation_system(3, 1, (0, 0), (1, 0))
        report = product_cube_identification(first, second)
        assert report.identified
        assert report.bijective and report.intertwines and report.measure_matches
        assert report.cube_size == 4 * 9

    def test_weighted_factors(self):
        # non-uniform weights, constant on orbits of each factor
        first = FiniteMPS(uniform(2), [1, 0], [0, 1])
        second = FiniteMPS([F(1)], [0], [0])
        report = product_cube_identification(first, second)
        assert report.identified

    def test_measure_check_matches_the_listed_pushforward(self, monkeypatch):
        # the verdict against mu_{S,T} listed quadruple by quadruple and pushed
        # to the factor pairs, on the true measure and on a skewed probability:
        # each joint orbit's mass moved onto its first T-orbit, which keeps the
        # support inside the cube space
        factors = [
            (translation_system(5, 1, (2, 0), (0, 0)), translation_system(3, 1, (0, 0), (1, 0))),
            (translation_system(4, 1, (1, 0), (0, 0)), translation_system(6, 1, (0, 0), (5, 0))),
            (translation_system(2, 1, (1, 0), (0, 0)), FiniteMPS([F(1)], [0], [0])),
        ]
        for first, second in factors:
            hm = host_measure(product_system(first, second))
            assert listed_pushforward(hm, second.n) == pair_tensor(first, second)
            assert product_cube_identification(first, second).measure_matches
            skewed = replace(hm, parts=tuple((mass * p, 1, grid) for mass, p, grid in hm.parts))
            assert listed_pushforward(skewed, second.n) != pair_tensor(first, second)
            with monkeypatch.context() as patch:
                patch.setattr(cubes, "host_measure", lambda sys: skewed)
                report = product_cube_identification(first, second)
            assert report.bijective and report.intertwines and not report.measure_matches

    def test_rejects_first_factor_with_moving_t(self):
        with pytest.raises(PreconditionError, match="first factor must have T = identity"):
            product_cube_identification(z4_diagonal(), translation_system(3, 1, (0, 0), (1, 0)))

    def test_rejects_second_factor_with_moving_s(self):
        with pytest.raises(PreconditionError, match="second factor must have S = identity"):
            product_cube_identification(
                translation_system(2, 1, (1, 0), (0, 0)),
                translation_system(3, 1, (1, 0), (0, 0)),
            )

    def test_rejects_non_ergodic_first_factor(self):
        lazy = FiniteMPS(uniform(2), [0, 1], [0, 1])
        with pytest.raises(PreconditionError, match="first factor must be ergodic"):
            product_cube_identification(lazy, translation_system(3, 1, (0, 0), (1, 0)))


class TestEmpiricalUniqueErgodicity:
    def test_two_cycle_hand_values(self):
        shift = (1, 0)
        ref = SparseMeasure(1, 2, {(0,): F(1, 2), (1,): F(1, 2)})
        report = empirical_unique_ergodicity([shift], ref, [0], [1, 2, 4])
        values = [row.value for row in report.rows]
        # N=1: empirical mass sits entirely on the start point
        assert values == [F(1, 2), F(0), F(0)]
        assert all(row.reference == 0 and row.abs_error == row.value for row in report.rows)

    def test_grid_hand_values(self):
        sys = product_grid(2, 3)
        ref = SparseMeasure(1, 6, {(x,): F(1, 6) for x in range(6)})
        report = empirical_unique_ergodicity(
            [tuple(sys.S), tuple(sys.T)], ref, "all", [1, 6, 12]
        )
        assert [row.value for row in report.rows] == [F(5, 6), F(0), F(0)]

    def test_exact_zero_at_full_periods_only_for_uniform_reference(self):
        shift = (1, 2, 0)
        ref = SparseMeasure(1, 3, {(x,): F(1, 3) for x in range(3)})
        report = empirical_unique_ergodicity([shift], ref, "all", [3, 5, 6, 9])
        values = {row.N: row.value for row in report.rows}
        assert values[3] == values[6] == values[9] == 0
        assert values[5] > 0

    def test_wrong_reference_stays_positive(self):
        shift = (1, 0)
        skewed = SparseMeasure(1, 2, {(0,): F(1)})
        report = empirical_unique_ergodicity([shift], skewed, [0], [2, 4, 8])
        assert all(row.value == F(1, 2) for row in report.rows)

    def test_matches_literal_window_enumeration(self):
        rng = Random(229)
        for _ in range(20):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            sys = translation_system(a, b, (rng.randint(0, a - 1), rng.randint(0, b - 1)),
                                     (rng.randint(0, a - 1), rng.randint(0, b - 1)))
            perms = [tuple(sys.S), tuple(sys.T)]
            uniform = SparseMeasure(1, sys.n, {(x,): w for x, w in enumerate(sys.weights)})
            # 1/2, 1/6, 1/12, ..., 1/((n-1)n) and 1/n: denominators differ
            skew = [F(1, (k + 1) * (k + 2)) for k in range(sys.n - 1)] + [F(1, sys.n)]
            skewed = SparseMeasure(1, sys.n, {(x,): w for x, w in enumerate(skew)})
            schedule = sorted({rng.randint(1, 5) for _ in range(3)})
            start = rng.randrange(sys.n)
            for ref in (uniform, skewed):
                report = empirical_unique_ergodicity(perms, ref, [start], schedule)
                for row in report.rows:
                    hits = literal_box_hits(lambda t, p: perms[t][p], start, 2, row.N)
                    tv = sum(
                        (abs(F(hits.get(x, 0), row.N**2) - ref.weight((x,))) for x in range(sys.n)),
                        F(0),
                    ) / 2
                    assert row.value == tv

    def test_all_starts_on_cube_spaces_match_literal_enumeration(self):
        # The engine walks every start's box under each reference, invariant
        # (uniform, or constant on each orbit) or not (skewed), and so does
        # the literal walk, on each cube space of at most 100 quadruples over
        # the types of index <= 6 and the unions of index <= 4.
        walked = transitive = 0
        for sys in lattices(6) + lattice_unions(4):
            space = cube_space(sys)
            if space.size > 100:
                continue
            walked += 1
            perms = list(space.perms.values())
            m, d = space.size, len(perms)
            # the hits of g_d^{i_d} ... g_1^{i_1} x for every exponent tuple
            boxes = {(x, N): literal_box_hits(lambda t, p: perms[t][p], x, d, N) for x in range(m) for N in (1, 2, 3, 4)}
            orbit_of = orbit_partition(perms, m).block_of
            transitive += max(orbit_of) == 0
            # reference masses w[p] / sum(w)
            references = {
                "uniform": [1] * m,
                "per-orbit": [orbit_of[p] + 1 for p in range(m)],
                "skewed": [p + 1 for p in range(m)],
            }
            # some transform moves a point exactly when a cube has more than one
            assert any(p != perm[p] for perm in perms for p in range(m)) == (m > sys.n)
            for name, w in references.items():
                ref = SparseMeasure(1, m, {(p,): F(v, sum(w)) for p, v in enumerate(w)})
                if name == "uniform":
                    assert ref == space.uniform_measure()
                report = empirical_unique_ergodicity(perms, ref, "all", [1, 2, 3, 4])
                assert report.metadata["starts"] == m
                for row in report.rows:
                    worst = F(0)
                    for x in range(m):
                        hits = boxes[x, row.N]
                        volume = row.N**d
                        assert sum(hits.values()) == volume
                        tv = F(sum(abs(hits.get(y, 0) * sum(w) - w[y] * volume) for y in range(m)), 2 * volume * sum(w))
                        worst = max(worst, tv)
                    assert row.value == worst, (sys, name, row.N)
        assert (walked, transitive) == (59, 23)

    def test_rejects_bad_inputs(self):
        ref = SparseMeasure(1, 2, {(0,): F(1, 2), (1,): F(1, 2)})
        pair_ref = SparseMeasure(2, 2, {(0, 1): F(1)})
        with pytest.raises(DimensionError, match="arity 1"):
            empirical_unique_ergodicity([(1, 0)], pair_ref, [0], [1])
        with pytest.raises(ValueError, match="at least one generator"):
            empirical_unique_ergodicity([], ref, [0], [1])
        with pytest.raises(ValueError, match="not a permutation"):
            empirical_unique_ergodicity([(0, 0)], ref, [0], [1])
        with pytest.raises(ValueError, match="do not commute"):
            empirical_unique_ergodicity([(1, 0, 2), (0, 2, 1)], ref3(), [0], [1])
        with pytest.raises(ValueError, match="starts must be 'all' or a list"):
            empirical_unique_ergodicity([(1, 0)], ref, "some", [1])
        with pytest.raises(ValueError, match="at least one start"):
            empirical_unique_ergodicity([(1, 0)], ref, [], [1])
        with pytest.raises(DimensionError, match="outside"):
            empirical_unique_ergodicity([(1, 0)], ref, [5], [1])
        with pytest.raises(ValueError, match="strictly increasing"):
            empirical_unique_ergodicity([(1, 0)], ref, [0], [2, 2])
        with pytest.raises(ValueError, match="positive window sizes"):
            empirical_unique_ergodicity([(1, 0)], ref, [0], [0, 1])


class TestUniformCubeDeviation:
    def test_equals_the_engine_on_the_listed_cube_space(self):
        # The engine takes the literal worst over the starts it is given.  It
        # gets every start where the cube space has at most 100 quadruples and
        # a seeded three beyond that: on every start its cost is quadratic in
        # the cube space.
        schedule = [1, 2, 3, 5, 7, 16, 31]
        rng = Random(241)
        systems = lattices(12) + (product_grid(5, 5),)
        everywhere = 0
        for sys in systems:
            space = cube_space(sys)
            starts = "all" if space.size <= 100 else sorted({0, rng.randrange(space.size), space.size - 1})
            everywhere += starts == "all"
            report = empirical_unique_ergodicity(list(space.perms.values()), space.uniform_measure(), starts, schedule)
            assert [uniform_cube_deviation(sys, N) for N in schedule] == [row.value for row in report.rows], sys
        assert (len(systems), everywhere) == (128, 36)

    def test_needs_an_ergodic_system(self):
        with pytest.raises(PreconditionError, match="ergodic"):
            uniform_cube_deviation(FiniteMPS(uniform(2), [0, 1], [0, 1]), 4)


def ref3():
    return SparseMeasure(1, 3, {(x,): F(1, 3) for x in range(3)})
