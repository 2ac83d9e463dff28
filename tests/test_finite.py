"""Finite systems: validation, group action, transitivity, freeness, serialization."""

import time
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from ergocubes.core import DimensionError
from ergocubes.finite import (
    FiniteMPS,
    FreenessResult,
    GroupElement,
    InvalidSystemError,
    S_GEN,
    SystemFormatError,
    T_GEN,
    diagonal_grid,
    ergodic_decomposition,
    invariant_partition,
    is_ergodic,
    is_free,
    partition_s,
    partition_t,
    product_grid,
    product_system,
    random_ergodic_system,
    random_product_system,
    random_system,
    system_from_dict,
    system_to_dict,
    translation_system,
    z4_diagonal,
)
from oracles import is_free_brute, lattice_unions, lattices, literal_apply, literal_cycle_length

QUARTER = Fraction(1, 4)


class TestConstruction:
    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidSystemError, match="bad permutation"):
            FiniteMPS([QUARTER] * 4, [0, 0, 2, 3], [0, 1, 2, 3])

    def test_rejects_bad_total_mass(self):
        with pytest.raises(InvalidSystemError, match="bad weights"):
            FiniteMPS([QUARTER] * 3, [0, 1, 2], [0, 1, 2])

    def test_rejects_negative_weight(self):
        # the sign is checked before the total mass
        for weights in ([Fraction(3, 2), Fraction(-1, 2)], [Fraction(1, 2), Fraction(-1, 2)]):
            with pytest.raises(InvalidSystemError, match="bad weights: negative entry"):
                FiniteMPS(weights, [0, 1], [0, 1])

    def test_rejects_non_preserving(self):
        for S, T, which in (([1, 0], [0, 1], "S"), ([0, 1], [1, 0], "T")):
            with pytest.raises(InvalidSystemError, match=f"non-preserving: weight changes along {which} at point 0"):
                FiniteMPS([Fraction(1, 3), Fraction(2, 3)], S, T)

    def test_rejects_non_commuting(self):
        # S = (01), T = (12) on three points do not commute
        with pytest.raises(InvalidSystemError, match="non-commuting"):
            FiniteMPS([Fraction(1, 3)] * 3, [1, 0, 2], [0, 2, 1])

    def test_rejects_float_weights(self):
        with pytest.raises(TypeError):
            FiniteMPS([0.5, 0.5], [0, 1], [0, 1])

    def test_strips_zero_weight_points(self):
        # a 2-cycle of zero mass next to a fixed point of full mass
        sys = FiniteMPS([Fraction(0), Fraction(1), Fraction(0)], [0, 1, 2], [2, 1, 0])
        assert sys.n == 1
        assert sys.weights == (Fraction(1),)
        assert sys.S == (0,) and sys.T == (0,)

    def test_rejects_empty_system(self):
        with pytest.raises(InvalidSystemError, match="total mass 0 != 1"):
            FiniteMPS([], [], [])


class TestAction:
    def test_orders(self):
        sys = z4_diagonal()
        assert sys.order_s() == 4 and sys.order_t() == 4
        grid = product_grid(2, 3)
        assert grid.order_s() == 2 and grid.order_t() == 3

    def test_apply_matches_stepping(self):
        rng = Random(9)
        for trial in range(80):
            sys = random_system(rng)
            if trial < 40:
                g = GroupElement(rng.randint(-6, 6), rng.randint(-6, 6))
            else:
                sign_i, sign_j = rng.choice((1, -1)), rng.choice((1, -1))
                g = GroupElement(sign_i * (10**12 + trial), sign_j * (10**12 + 3 * trial))
            x = rng.randrange(sys.n)
            i, j = g.i, g.j
            if trial >= 40:
                # far past the orders: step the exponents reduced modulo
                # the literally walked cycle lengths at x
                i, j = i % literal_cycle_length(sys.S, x), j % literal_cycle_length(sys.T, x)
            expected = literal_apply(sys, i, j, x)
            assert sys.apply(g, x) == expected
            assert sys.group_perm(g)[x] == expected

    def test_points_outside_the_system_are_rejected(self):
        sys = product_grid(2, 2)
        for x in (-1, sys.n):
            message = f"start point {x} outside 0\\.\\.3"
            with pytest.raises(DimensionError, match=message):
                sys.orbit_grid(x)
            for g in (S_GEN, GroupElement(0, 0)):
                with pytest.raises(DimensionError, match=message):
                    sys.apply(g, x)
            # nothing was memoized for the rejected point
            assert sys.cached(("grid", x), lambda: "absent") == "absent"


class TestPartitions:
    def test_partition_s_is_s_orbits(self):
        grid = product_grid(2, 3)
        ps = partition_s(grid)
        # S flips the first coordinate, so blocks pair (0,v) with (1,v)
        assert ps.num_blocks == 3
        for block in ps.blocks():
            assert len(block) == 2
            assert {p // 3 for p in block} == {0, 1}

    def test_partition_t_is_t_orbits(self):
        grid = product_grid(2, 3)
        pt = partition_t(grid)
        assert pt.num_blocks == 2
        for block in pt.blocks():
            assert len(block) == 3

    def test_invariant_partition_joint(self):
        sys = z4_diagonal()
        joint = invariant_partition(sys, [S_GEN, T_GEN])
        assert joint.num_blocks == 1

    def test_blocks_are_invariant(self):
        rng = Random(17)
        for _ in range(30):
            sys = random_system(rng)
            ps = partition_s(sys)
            for x in range(sys.n):
                assert ps.block_of[sys.S[x]] == ps.block_of[x]
            pt = partition_t(sys)
            for x in range(sys.n):
                assert pt.block_of[sys.T[x]] == pt.block_of[x]


class TestErgodicity:
    def test_builtins(self):
        assert is_ergodic(z4_diagonal())
        assert is_ergodic(product_grid(2, 3))
        assert is_ergodic(diagonal_grid(2, 3))

    def test_disjoint_union_not_ergodic(self):
        a = translation_system(2, 1, (1, 0), (0, 0))
        doubled = FiniteMPS(
            [Fraction(1, 4)] * 4,
            [1, 0, 3, 2],
            [0, 1, 2, 3],
        )
        assert not is_ergodic(doubled)

    def test_ergodic_implies_uniform(self):
        rng = Random(19)
        for _ in range(40):
            sys = random_system(rng)
            if is_ergodic(sys):
                assert len(set(sys.weights)) == 1

    def test_decomposition_masses_and_conditionals(self):
        rng = Random(21)
        for _ in range(40):
            sys = random_system(rng, max_components=3)
            comps = ergodic_decomposition(sys)
            assert sum(c.mass for c in comps) == 1
            seen = []
            for c in comps:
                seen.extend(c.support)
                sub = c.subsystem(sys)
                assert is_ergodic(sub)
                assert sum(sub.weights) == 1
                # conditional weights: original weight divided by block mass
                for local, original in enumerate(c.support):
                    assert sub.weights[local] == sys.weights[original] / c.mass
            assert sorted(seen) == list(range(sys.n))

    def test_components_in_first_occurrence_order(self):
        sys = FiniteMPS(
            [Fraction(1, 4)] * 4,
            [1, 0, 3, 2],
            [0, 1, 2, 3],
        )
        comps = ergodic_decomposition(sys)
        assert [c.support for c in comps] == [(0, 1), (2, 3)]


def _cycles_system(lengths):
    """S = T, one cycle of each length."""
    perm = []
    for length in lengths:
        perm += [len(perm) + (k + 1) % length for k in range(length)]
    return FiniteMPS([Fraction(1, len(perm))] * len(perm), perm, perm)


class TestFreeness:
    def test_equals_brute_force_reference(self):
        # every orbit type of index <= 24, every union of two or three types
        # of total index <= 12, and the 6 x 6 product grid
        systems = lattices(24) + lattice_unions(12) + (product_grid(6, 6),)
        not_free = 0
        for sys in systems:
            expected = is_free_brute(sys)
            assert is_free(sys) == expected, (sys.S, sys.T)
            not_free += not expected.free
        assert (len(systems), not_free) == (8176, 5656)

    def test_no_table_sized_by_the_order(self):
        sys = _cycles_system((2, 3, 5, 7, 11, 13))   # order 30,030 on 41 points
        tracemalloc.start()
        try:
            result = is_free(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == FreenessResult(False, (1, 30029))
        assert peak < 2**20

    def test_order_above_10_to_the_8_is_fast(self):
        sys = _cycles_system((2, 3, 5, 7, 11, 13, 17, 19, 23))
        assert sys.n == 100
        begin = time.perf_counter()
        result = is_free(sys)
        assert time.perf_counter() - begin < 0.5
        assert result == FreenessResult(False, (1, 223092869))

    def test_z4_not_free(self):
        result = is_free(z4_diagonal())
        assert not result.free
        i, j = result.witness
        assert (i, j) != (0, 0)
        assert z4_diagonal().group_perm(GroupElement(i, j)) == (0, 1, 2, 3)

    def test_product_grid_free(self):
        assert is_free(product_grid(2, 3)).free

    def test_diagonal_grid_not_free(self):
        result = is_free(diagonal_grid(2, 3))
        assert not result.free
        assert diagonal_grid(2, 3).group_perm(GroupElement(*result.witness)) == tuple(range(6))

    def test_identity_generator_never_free(self):
        sys = translation_system(4, 1, (1, 0), (0, 0))   # T is the identity
        result = is_free(sys)
        assert not result.free
        assert result.witness == (0, 1)

    def test_witnesses_honest_seeded(self):
        rng = Random(29)
        for _ in range(60):
            sys = random_system(rng, max_order=5)
            result = is_free(sys)
            identity = tuple(range(sys.n))
            if result.free:
                # spot-check: no small power acts as the identity
                for i in range(sys.order_s()):
                    for j in range(sys.order_t()):
                        if (i, j) != (0, 0):
                            assert sys.group_perm(GroupElement(i, j)) != identity
            else:
                assert result.witness != (0, 0)
                assert sys.group_perm(GroupElement(*result.witness)) == identity


class TestSerialization:
    def test_round_trip(self):
        rng = Random(31)
        for _ in range(30):
            sys = random_system(rng)
            assert system_from_dict(system_to_dict(sys)) == sys

    def test_weights_serialized_as_strings(self):
        doc = system_to_dict(z4_diagonal())
        assert doc["weights"] == ["1/4", "1/4", "1/4", "1/4"]
        assert doc["n"] == 4

    def test_missing_field(self):
        with pytest.raises(SystemFormatError, match="missing field"):
            system_from_dict({"n": 1, "weights": ["1/1"], "S": [0]})

    def test_bad_weight_string(self):
        with pytest.raises(SystemFormatError, match="weights"):
            system_from_dict({"n": 1, "weights": ["zebra"], "S": [0], "T": [0]})

    def test_bad_permutation_length(self):
        with pytest.raises(SystemFormatError, match="S"):
            system_from_dict({"n": 2, "weights": ["1/2", "1/2"], "S": [0], "T": [0, 1]})

    def test_fields_must_be_lists(self):
        doc = {"n": 1, "weights": ["1/1"], "S": [0], "T": [0]}
        for name, bad in (("weights", 5), ("S", "0"), ("T", {"0": 0})):
            with pytest.raises(SystemFormatError, match=f"{name}: expected a list"):
                system_from_dict({**doc, name: bad})
        with pytest.raises(SystemFormatError, match="expected a JSON object"):
            system_from_dict([1, ["1/1"], [0], [0]])

    def test_bools_are_not_integers(self):
        doc = {"n": 2, "weights": ["1/2", "1/2"], "S": [0, 1], "T": [0, 1]}
        with pytest.raises(SystemFormatError, match="S: expected 2 integer entries"):
            system_from_dict({**doc, "S": [0, True]})
        with pytest.raises(SystemFormatError, match="T: expected 2 integer entries"):
            system_from_dict({**doc, "T": [False, 1]})
        with pytest.raises(SystemFormatError, match="n: expected a positive integer"):
            system_from_dict({"n": True, "weights": ["1/1"], "S": [0], "T": [0]})

    def test_invalid_system_reported_as_format_error(self):
        with pytest.raises(SystemFormatError, match="non-commuting"):
            system_from_dict({"n": 3, "weights": ["1/3"] * 3, "S": [1, 0, 2], "T": [0, 2, 1]})


class TestGenerators:
    def test_translation_system_layout(self):
        sys = translation_system(2, 3, (1, 1), (0, 1))
        # point (u, v) sits at u*3 + v; S adds (1,1)
        assert sys.S[0] == 1 * 3 + 1
        assert sys.T[0] == 0 * 3 + 1
        assert sys.T[2] == 0   # (0,2) + (0,1) wraps to (0,0)

    def test_builtin_shapes(self):
        assert z4_diagonal().n == 4
        assert product_grid(2, 3).n == 6
        assert diagonal_grid(2, 3).n == 6

    def test_product_system(self):
        first = translation_system(2, 1, (1, 0), (0, 0))
        second = translation_system(1, 3, (0, 0), (0, 1))
        prod = product_system(first, second)
        assert prod.n == 6
        assert is_ergodic(prod)
        # S moves the first coordinate only, T the second only
        for x in range(2):
            for y in range(3):
                idx = x * 3 + y
                assert prod.S[idx] == ((x + 1) % 2) * 3 + y
                assert prod.T[idx] == x * 3 + (y + 1) % 3
        assert set(prod.weights) == {Fraction(1, 6)}

    def test_random_families_are_valid(self):
        rng = Random(37)
        for _ in range(25):
            sys = random_system(rng, max_order=4, max_components=3)
            assert sum(sys.weights) == 1
        for _ in range(25):
            sys = random_ergodic_system(rng)
            assert is_ergodic(sys)
            assert sys.S != tuple(range(sys.n))
            assert sys.T != tuple(range(sys.n))
        for _ in range(25):
            sys = random_product_system(rng)
            assert is_ergodic(sys)
            assert is_free(sys).free
