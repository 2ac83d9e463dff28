"""Exact containers: partitions, observables, sparse measures."""

import re
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergocubes.core import (
    DimensionError,
    Observable,
    Partition,
    SparseMeasure,
    as_fraction,
    common_refinement,
    format_fraction,
    integrate,
    marginal,
    parse_rational,
)


def test_as_fraction_accepts_exact_inputs():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("2/7") == Fraction(2, 7)
    assert as_fraction(Fraction(-1, 4)) == Fraction(-1, 4)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_parse_rational_bounds_the_decimal_exponent():
    limit = sys.int_info.default_max_str_digits
    assert parse_rational(" -2.5e1 ") == Fraction(-25)
    assert parse_rational("3/6") == Fraction(1, 2)
    assert parse_rational(f"1e-{limit}") == Fraction(1, 10**limit)
    for text in (f"1e{limit + 1}", f"1E-{limit + 1}", "1e-999999999", "0e+999999999", "2.5e1_000_000"):
        with pytest.raises(ValueError, match="decimal exponent"):
            parse_rational(text)
        with pytest.raises(ValueError, match="decimal exponent"):
            as_fraction(text)
    with pytest.raises(ValueError):  # more exponent digits than int() converts
        parse_rational("1e" + "9" * (limit + 1))
    with pytest.raises(ValueError):
        parse_rational("1/x")


# Digits (one non-ASCII), signs, '/', '.', exponent letters, '_' and
# whitespace: free text, and text shaped like Fraction's grammar.
RATIONAL_TEXT = st.one_of(
    st.text(alphabet="0123456789+-/.eE_ \t\n\u0663", max_size=16),
    st.from_regex(r"\s?[-+]?\d{0,3}(_\d)?(\s?[/.]\s?\d{0,3}(_\d)?)?([eE][-+]?\d{1,3})?\s?", fullmatch=True),
)


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(RATIONAL_TEXT)
def test_parse_rational_agrees_with_fraction(text):
    # an exponent of four or more digits meets the guard on purpose
    assume(not re.search(r"[eE][-+]?[\d_]{4,}", text))
    assert _outcome(parse_rational, text) == _outcome(Fraction, text)


def test_format_fraction_always_shows_denominator():
    assert format_fraction(Fraction(1, 2)) == "1/2"
    assert format_fraction(Fraction(3)) == "3/1"
    assert format_fraction(Fraction(0)) == "0/1"
    assert format_fraction(Fraction(-5, 3)) == "-5/3"


class TestPartition:
    def test_from_labels_canonicalizes(self):
        p = Partition.from_labels(["b", "a", "b", "c"])
        assert p.block_of == (0, 1, 0, 2)

    def test_rejects_non_canonical_labels(self):
        with pytest.raises(ValueError):
            Partition((1, 0))

    def test_blocks_in_first_occurrence_order(self):
        p = Partition.from_labels([5, 5, 2, 5, 2, 9])
        assert p.blocks() == [(0, 1, 3), (2, 4), (5,)]
        assert p.num_blocks == 3
        assert p.n == 6

    def test_singletons_and_one_block(self):
        assert Partition.singletons(3).blocks() == [(0,), (1,), (2,)]
        assert Partition.one_block(3).blocks() == [(0, 1, 2)]

    def test_refines(self):
        fine = Partition.from_labels([0, 1, 2, 3])
        coarse = Partition.from_labels([0, 0, 1, 1])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert coarse.refines(coarse)

    def test_refines_size_mismatch(self):
        with pytest.raises(DimensionError):
            Partition.singletons(2).refines(Partition.singletons(3))

    def test_common_refinement(self):
        p = Partition.from_labels([0, 0, 1, 1])
        q = Partition.from_labels([0, 1, 0, 1])
        r = common_refinement(p, q)
        assert r.blocks() == [(0,), (1,), (2,), (3,)]
        same = common_refinement(p, p)
        assert same.blocks() == p.blocks()

    def test_common_refinement_refines_both_seeded(self):
        rng = Random(2024)
        for _ in range(60):
            n = rng.randint(1, 12)
            p = Partition.from_labels([rng.randrange(4) for _ in range(n)])
            q = Partition.from_labels([rng.randrange(4) for _ in range(n)])
            r = common_refinement(p, q)
            assert r.refines(p)
            assert r.refines(q)
            # coarsest such partition: any pair split by r is split by p or q
            for x in range(n):
                for y in range(n):
                    if p.block_of[x] == p.block_of[y] and q.block_of[x] == q.block_of[y]:
                        assert r.block_of[x] == r.block_of[y]


class TestObservable:
    def test_values_coerced_to_fractions(self):
        f = Observable(("1/2", 3, Fraction(0)))
        assert f.values == (Fraction(1, 2), Fraction(3), Fraction(0))

    def test_rejects_float_values(self):
        with pytest.raises(TypeError):
            Observable((0.5, 1))

    def test_constant_and_indicator(self):
        assert Observable.constant(4, "2/3").values == (Fraction(2, 3),) * 4
        assert Observable.indicator(4, 1).values == (0, 1, 0, 0)

    def test_algebra_is_pointwise(self):
        f = Observable((1, -2, 3))
        g = Observable((2, 2, 2))
        assert (f + g).values == (3, 0, 5)
        assert (f - g).values == (-1, -4, 1)
        assert (f * g).values == (2, -4, 6)
        assert (f * Fraction(1, 2)).values == (Fraction(1, 2), -1, Fraction(3, 2))

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            Observable((1, 2)) + Observable((1, 2, 3))

    def test_sup_norm(self):
        assert Observable((1, -3, 2)).sup_norm == 3
        assert Observable.constant(2, 0).sup_norm == 0

    def test_call(self):
        f = Observable((5, 7))
        assert f(0) == 5 and f(1) == 7


class TestSparseMeasure:
    def test_validates_total_mass(self):
        with pytest.raises(ValueError):
            SparseMeasure(arity=1, n=2, entries={(0,): Fraction(1, 2)})

    def test_validates_arity_of_keys(self):
        with pytest.raises(DimensionError):
            SparseMeasure(arity=2, n=2, entries={(0,): Fraction(1)})

    def test_validates_index_range(self):
        with pytest.raises(ValueError):
            SparseMeasure(arity=1, n=2, entries={(2,): Fraction(1)})

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            SparseMeasure(arity=1, n=2, entries={(0,): Fraction(1), (1,): Fraction(0)})

    def test_weight(self):
        m = SparseMeasure(arity=1, n=3, entries={(2,): Fraction(1, 2), (0,): Fraction(1, 2)})
        assert m.weight((2,)) == Fraction(1, 2)
        assert m.weight((1,)) == 0

    def test_integrate_product(self):
        m = SparseMeasure(
            arity=2,
            n=2,
            entries={(0, 0): Fraction(1, 4), (0, 1): Fraction(1, 4), (1, 1): Fraction(1, 2)},
        )
        f = Observable((1, 2))
        g = Observable((3, -1))
        expected = Fraction(1, 4) * 1 * 3 + Fraction(1, 4) * 1 * (-1) + Fraction(1, 2) * 2 * (-1)
        assert integrate(m, (f, g)) == expected

    def test_integrate_arity_mismatch(self):
        m = SparseMeasure(arity=2, n=2, entries={(0, 0): Fraction(1)})
        with pytest.raises(DimensionError):
            integrate(m, (Observable((1, 1)),))

    def test_integrate_point_count_mismatch(self):
        m = SparseMeasure(arity=1, n=2, entries={(0,): Fraction(1)})
        with pytest.raises(DimensionError):
            integrate(m, (Observable((1, 1, 1)),))

    def test_marginal(self):
        m = SparseMeasure(
            arity=2,
            n=3,
            entries={(0, 1): Fraction(1, 3), (0, 2): Fraction(1, 3), (1, 2): Fraction(1, 3)},
        )
        assert marginal(m, 0).entries == {(0,): Fraction(2, 3), (1,): Fraction(1, 3)}
        assert marginal(m, 1).entries == {(1,): Fraction(1, 3), (2,): Fraction(2, 3)}
        with pytest.raises(DimensionError):
            marginal(m, 2)

    def test_integrate_matches_literal_sum_seeded(self):
        rng = Random(77)
        for _ in range(40):
            n = rng.randint(1, 5)
            arity = rng.randint(1, 3)
            keys = {tuple(rng.randrange(n) for _ in range(arity)) for _ in range(rng.randint(1, 6))}
            keys = sorted(keys)
            parts = [rng.randint(1, 5) for _ in keys]
            total = sum(parts)
            m = SparseMeasure(
                arity=arity, n=n,
                entries={k: Fraction(p, total) for k, p in zip(keys, parts)},
            )
            fs = [Observable(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))) for _ in range(arity)]
            literal = Fraction(0)
            for key, mass in m.entries.items():
                term = mass
                for f, idx in zip(fs, key):
                    term *= f.values[idx]
                literal += term
            assert integrate(m, fs) == literal
