"""The lattice corpus lists every orbit type once, and on each type the
verdicts follow from its stabilizer triple (p, q, r)."""

import math
from collections import Counter
from itertools import combinations_with_replacement

from ergocubes.finite import S_GEN, T_GEN, invariant_partition, is_free, partition_st
from ergocubes.joinings import invariant_w, is_magic, measurability_check
from oracles import lattice_unions, lattices, literal_stabilizer


def test_every_type_and_every_union_once():
    triples = [literal_stabilizer(sys, 0) for sys in lattices(24)]
    assert sorted(triples) == sorted((p, q, r) for p in range(1, 25) for r in range(1, 24 // p + 1) for q in range(r))
    assert (len(triples), sum(p * r <= 12 for p, _, r in triples)) == (491, 127)
    # each system is one orbit of index p r, with one stabilizer throughout
    for sys, (p, q, r) in zip(lattices(24), triples):
        assert sys.n == p * r and {literal_stabilizer(sys, x) for x in range(sys.n)} == {(p, q, r)}
    # each multiset of two or three types of total index <= 8 twice, under
    # uniform and under skewed weights, one joint orbit per piece
    small = sorted((p, q, r) for p, q, r in triples if p * r <= 8)
    unions = [c for k in (2, 3) for c in combinations_with_replacement(small, k) if sum(p * r for p, _, r in c) <= 8]
    found = Counter(tuple(sorted(literal_stabilizer(sys, o[0]) for o in partition_st(sys).blocks())) for sys in lattice_unions(8))
    assert found == {union: 2 for union in unions} and len(unions) == 458


def test_joint_orbits_are_the_orbits_of_the_generated_group():
    # partition_st unions the listed S and T; invariant_partition builds each
    # generator through group_perm
    for sys in lattices(24) + lattice_unions(8):
        assert partition_st(sys) == invariant_partition(sys, (S_GEN, T_GEN))


def test_verdicts_follow_the_triple():
    # the T-cycles have r points and the S-cycles p r / gcd(q, r); the S- and
    # T-orbit of a point meet in r / gcd(q, r) points, so W has p gcd(q, r)
    # blocks, and W is discrete exactly when q = 0
    for sys in lattices(24):
        p, q, r = literal_stabilizer(sys, 0)
        g = math.gcd(q, r)
        assert is_free(sys).free == (q == 0 and p > 1 and r > 1), (p, q, r)
        assert measurability_check(sys) == (q == 0), (p, q, r)
        assert invariant_w(sys).num_blocks == p * g, (p, q, r)
        assert {sys.orbit_grid(x)[:2] for x in range(sys.n)} == {(p * r // g, r)}, (p, q, r)


def test_magic_exactly_when_q_is_0():
    # index <= 12 only: beyond it the exact seminorm kernel takes minutes
    for sys in lattices(12):
        assert is_magic(sys).is_magic == (literal_stabilizer(sys, 0)[1] == 0)
