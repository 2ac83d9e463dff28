"""Self-joinings, the four-fold seminorm, the magic property, extensions.

The worked reference values on the 4-cycle diagonal system are checked two
independent ways: once through the package's joining construction and once
through a standalone autocorrelation formula proved directly from the
definition of the quadruple measure on a single cycle (see
test_z4_seminorm_matches_autocorrelation_route).
"""

import math
import time
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from ergocubes import joinings
from ergocubes.averaging import AVERAGE_KINDS, AverageSpec, run_average
from ergocubes.core import Observable, PreconditionError, SparseMeasure, integrate, marginal
from ergocubes.finite import (
    FiniteMPS,
    diagonal_grid,
    is_ergodic,
    is_free,
    partition_s,
    partition_st,
    partition_t,
    product_grid,
    random_ergodic_system,
    random_system,
    translation_system,
    z4_diagonal,
)
from ergocubes.joinings import (
    ExtensionConstructionError,
    MagicReport,
    cond_exp,
    host_integral,
    host_measure,
    host_seminorm,
    invariant_w,
    is_magic,
    magic_extension,
    measurability_check,
    rel_indep_square,
    seminorm_kernel_basis,
)
import oracles
from oracles import (
    autocorrelation_fourth_power,
    closure_orbits,
    cycle_patterns,
    lattice_unions,
    lattices,
    listed_mu_st,
    magic_extension_by_decomposition,
    measurable_by_spread,
    mixed_observable,
    random_observable,
    z4_observable,
)

F = Fraction


class TestPairMeasure:
    def test_z4_pair_measure_is_uniform_on_all_pairs(self):
        mu_s = rel_indep_square(z4_diagonal())
        assert len(mu_s.entries) == 16
        assert set(mu_s.entries.values()) == {F(1, 16)}
        assert set(mu_s.entries) == {(x, y) for x in range(4) for y in range(4)}

    def test_pair_measure_supported_on_s_orbit_pairs(self):
        rng = Random(101)
        for _ in range(30):
            sys = random_system(rng)
            ps = partition_s(sys)
            mu_s = rel_indep_square(sys)
            for (x, y), mass in mu_s.entries.items():
                assert ps.block_of[x] == ps.block_of[y]
                block = ps.blocks()[ps.block_of[x]]
                block_mass = sum(sys.weights[p] for p in block)
                assert mass == sys.weights[x] * sys.weights[y] / block_mass

    def test_pair_measure_marginals(self):
        rng = Random(103)
        for _ in range(30):
            sys = random_system(rng)
            mu_s = rel_indep_square(sys)
            base = {(x,): w for x, w in enumerate(sys.weights)}
            assert marginal(mu_s, 0).entries == base
            assert marginal(mu_s, 1).entries == base


class TestQuadrupleMeasure:
    def test_z4_quadruple_measure(self):
        hm = host_measure(z4_diagonal())
        assert len(hm.mu_st.entries) == 64
        assert set(hm.mu_st.entries.values()) == {F(1, 64)}
        # the support is exactly the cycle patterns (x, x+i, x+j, x+i+j)
        assert set(hm.mu_st.entries) == cycle_patterns(4)

    def test_quadruple_marginals_seeded(self):
        rng = Random(107)
        for _ in range(25):
            sys = random_system(rng)
            hm = host_measure(sys)
            base = {(x,): w for x, w in enumerate(sys.weights)}
            for coord in range(4):
                assert marginal(hm.mu_st, coord).entries == base

    def test_quadruple_measure_invariant_under_side_and_diagonal_moves(self):
        rng = Random(109)
        for _ in range(20):
            sys = random_system(rng, max_order=3)
            hm = host_measure(sys)
            moves = (
                (0, sys.S, 0, sys.S),          # advance the S side
                (0, 0, sys.T, sys.T),          # advance the T side
                (sys.S, sys.S, sys.S, sys.S),  # S diagonal
                (sys.T, sys.T, sys.T, sys.T),  # T diagonal
            )
            for move in moves:
                pushed = {}
                for quad, mass in hm.mu_st.entries.items():
                    image = tuple(
                        p if rule == 0 else rule[p] for p, rule in zip(quad, move)
                    )
                    pushed[image] = pushed.get(image, F(0)) + mass
                assert pushed == hm.mu_st.entries

    def test_host_integral_matches_materialized_integrate(self, monkeypatch):
        # the factored integral against the literal sum over every listed
        # quadruple, with signed observables whose denominators differ
        rng = Random(157)
        cases = []
        for sys in lattices(12) + lattice_unions(7) + (product_grid(6, 6),):
            fs = [mixed_observable(rng, sys.n) for _ in range(4)]
            listed = integrate(SparseMeasure(4, sys.n, listed_mu_st(sys)), fs)
            assert host_integral(host_measure(sys), fs) == listed
            cases.append((sys, fs, listed))
        assert len(cases) == 592

        def largest_denominator(values):
            values = list(values)
            d = max(v.denominator for v in values)
            return [v.numerator * (d // v.denominator) for v in values], d

        def mutated(sys, fs):
            # the weights are put over one denominator when the host measure
            # is built; wrong numerators give each joint orbit a wrong mass
            return host_integral(joinings._build_host_measure(sys), fs)

        monkeypatch.setattr(joinings, "common_denominator", largest_denominator)
        assert any(mutated(sys, fs) != listed for sys, fs, listed in cases)


class TestSeminorm:
    def test_z4_fourth_power_is_one_eighth(self):
        hm = host_measure(z4_diagonal())
        value = host_seminorm(hm, z4_observable())
        assert value.fourth_power == F(1, 8)
        assert abs(value.fourth_root - 0.125**0.25) < 1e-12

    def test_z4_seminorm_matches_autocorrelation_route(self):
        for values in ((1, 0, -1, 0), (2, 1, 0, -1), (1, 1, -1, 0, 2)):
            f = Observable(tuple(F(v) for v in values))
            sys = translation_system(f.n, 1, (1, 0), (1, 0))
            assert host_seminorm(host_measure(sys), f).fourth_power == autocorrelation_fourth_power(f)

    def test_seminorm_properties_seeded(self):
        rng = Random(113)
        for _ in range(40):
            sys = random_system(rng)
            hm = host_measure(sys)
            f = random_observable(rng, sys.n)
            g = random_observable(rng, sys.n)
            nf = host_seminorm(hm, f).fourth_power
            ng = host_seminorm(hm, g).fourth_power
            assert nf >= 0
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            assert host_seminorm(hm, f * c).fourth_power == c**4 * nf
            cross = integrate(hm.mu_st, (f, g, g, f))
            n_all = [host_seminorm(hm, h).fourth_power for h in (f, g, g, f)]
            assert cross**4 <= n_all[0] * n_all[1] * n_all[2] * n_all[3]

    def test_seminorm_invariant_under_generators(self):
        rng = Random(127)
        for _ in range(25):
            sys = random_system(rng)
            hm = host_measure(sys)
            f = random_observable(rng, sys.n)
            norm = host_seminorm(hm, f).fourth_power
            f_s = Observable(tuple(f.values[sys.S[x]] for x in range(sys.n)))
            f_t = Observable(tuple(f.values[sys.T[x]] for x in range(sys.n)))
            assert host_seminorm(hm, f_s).fourth_power == norm
            assert host_seminorm(hm, f_t).fourth_power == norm

    def test_constant_seminorm(self):
        hm = host_measure(product_grid(2, 3))
        one = Observable.constant(6, 1)
        assert host_seminorm(hm, one).fourth_power == 1


class TestConditionalExpectation:
    def test_block_averages(self):
        sys = product_grid(2, 3)
        f = Observable((F(6), F(0), F(3), F(0), F(2), F(1)))
        ps = partition_s(sys)
        ce = cond_exp(sys, f, ps)
        for block in ps.blocks():
            mass = sum(sys.weights[x] for x in block)
            avg = sum((sys.weights[x] * f.values[x] for x in block), F(0)) / mass
            for x in block:
                assert ce.values[x] == avg

    def test_projection_properties_seeded(self):
        rng = Random(131)
        for _ in range(30):
            sys = random_system(rng)
            part = invariant_w(sys)
            f = random_observable(rng, sys.n, -3, 3)
            ce = cond_exp(sys, f, part)
            assert cond_exp(sys, ce, part) == ce      # idempotent
            together = sum((sys.weights[x] * ce.values[x] for x in range(sys.n)), F(0))
            plain = sum((sys.weights[x] * f.values[x] for x in range(sys.n)), F(0))
            assert together == plain                  # preserves the integral
            g = f - ce
            # orthogonality to block-constant observables
            h = cond_exp(sys, random_observable(rng, sys.n), part)
            inner = sum((sys.weights[x] * g.values[x] * h.values[x] for x in range(sys.n)), F(0))
            assert inner == 0

    def test_invariant_w_is_joint_refinement(self):
        rng = Random(137)
        for _ in range(20):
            sys = random_system(rng)
            w = invariant_w(sys)
            assert w.refines(partition_s(sys))
            assert w.refines(partition_t(sys))


class TestMagic:
    def test_z4_not_magic(self):
        report = is_magic(z4_diagonal())
        assert not report.is_magic
        assert report.seminorm_kernel_dim == 0
        assert report.mean_zero_dim == 3
        assert report.direction == "mean-zero observable with positive seminorm"
        f = report.counterexample
        assert f is not None
        # the counterexample is W-mean-zero but has positive seminorm
        hm = host_measure(z4_diagonal())
        assert host_seminorm(hm, f).fourth_power > 0
        ce = cond_exp(z4_diagonal(), f, invariant_w(z4_diagonal()))
        assert all(v == 0 for v in ce.values)

    def test_product_grid_magic(self):
        report = is_magic(product_grid(2, 3))
        assert report.is_magic
        assert report.counterexample is None
        # S-orbits and T-orbits separate points here, so the joint invariant
        # partition is discrete and both spaces are zero-dimensional
        assert report.seminorm_kernel_dim == report.mean_zero_dim == 0

    def test_kernel_matches_mean_zero_on_magic_systems(self):
        rng = Random(139)
        for _ in range(10):
            a, b = rng.randint(2, 4), rng.randint(2, 4)
            sys = product_grid(a, b)
            hm = host_measure(sys)
            for basis_vec in seminorm_kernel_basis(hm):
                assert host_seminorm(hm, basis_vec).fourth_power == 0
                ce = cond_exp(sys, basis_vec, invariant_w(sys))
                assert all(v == 0 for v in ce.values)

    def test_box_seminorm_is_a_norm_seeded(self):
        # every weight is positive, so the diagonal orbit of each point gives
        # every indicator a positive seminorm and the seminorm kernel is {0}
        for sys in lattices(8) + lattice_unions(4) + (product_grid(3, 6),):
            hm = host_measure(sys)
            for x in range(sys.n):
                assert host_seminorm(hm, Observable.indicator(sys.n, x)).fourth_power > 0
            assert seminorm_kernel_basis(hm) == []
            assert is_magic(sys).seminorm_kernel_dim == 0

    def test_magic_iff_measurable_pairing_seeded(self):
        # the structural characterization: the seminorm kernel equals the
        # mean-zero space exactly when conditioning the pair measure on the
        # doubled T-invariants factors through the joint algebra
        rng = Random(149)
        for _ in range(25):
            sys = random_ergodic_system(rng)
            assert is_magic(sys).is_magic == measurability_check(sys)

    def test_grid_2x3_diagonal_magic_status(self):
        report = is_magic(diagonal_grid(2, 3))
        assert report.is_magic == measurability_check(diagonal_grid(2, 3))


class TestMagicExtension:
    def test_z4_extension_structure(self):
        sys = z4_diagonal()
        ext = magic_extension(sys)
        assert ext.system.n == 16
        assert ext.mass == F(1, 4)
        assert len(ext.components) == 4
        assert sum(c.mass for c in ext.components) == 1
        selected = [c for c in ext.components if c.selected]
        assert len(selected) == 1
        assert selected[0].magic and selected[0].free

    def test_z4_extension_passes_all_three_checks(self):
        ext = magic_extension(z4_diagonal())
        assert is_magic(ext.system).is_magic
        assert is_ergodic(ext.system)
        assert is_free(ext.system).free

    def test_factor_map_intertwines_and_pushes_measure(self):
        rng = Random(151)
        for _ in range(10):
            sys = random_ergodic_system(rng)
            ext = magic_extension(sys)
            big = ext.system
            pushed = [F(0)] * sys.n
            for p in range(big.n):
                pushed[ext.factor[p]] += big.weights[p]
                assert ext.factor[big.S[p]] == sys.S[ext.factor[p]]
                assert ext.factor[big.T[p]] == sys.T[ext.factor[p]]
            assert pushed == list(sys.weights)

    def test_extension_points_sit_over_quadruples(self):
        ext = magic_extension(z4_diagonal())
        for k, quad in enumerate(ext.quadruples):
            assert ext.factor[k] == quad[3]

    def test_extension_of_magic_system_is_still_magic(self):
        ext = magic_extension(product_grid(2, 3))
        assert is_magic(ext.system).is_magic
        assert is_ergodic(ext.system)
        assert is_free(ext.system).free

    def test_requires_ergodic_base(self):
        sys = FiniteMPS([F(1, 4)] * 4, [1, 0, 3, 2], [0, 1, 2, 3])
        with pytest.raises(PreconditionError, match="ergodic"):
            magic_extension(sys)

    def test_one_point_base(self):
        # S = T = identity on a point: the extension is the point itself and
        # freeness is vacuously not required
        sys = FiniteMPS([F(1)], [0], [0])
        ext = magic_extension(sys)
        assert ext.system.n == 1
        assert is_magic(ext.system).is_magic

    def test_matches_the_decomposition_route_seeded(self, monkeypatch):
        # the cube over point 0 is the component the full decomposition picks.
        # Both routes decide magic on equal systems, so each system is decided
        # once, which halves the test's time.
        decide, verdicts = joinings.is_magic, {}

        def decide_once(sys):
            key = (sys.weights, sys.S, sys.T)
            if key not in verdicts:
                verdicts[key] = decide(sys)
            return verdicts[key]

        monkeypatch.setattr(joinings, "is_magic", decide_once)
        monkeypatch.setattr(oracles, "is_magic", decide_once)
        bases = [sys for sys in lattices(12) if math.prod(sys.orbit_grid(0)[:2]) <= 36]
        assert len(bases) == 77
        for sys in bases:
            ext, ref = magic_extension(sys), magic_extension_by_decomposition(sys)
            assert (ext.system, ext.quadruples, ext.factor, ext.mass) == (ref.system, ref.quadruples, ref.factor, ref.mass)
            assert ext.components == ref.components

    def test_leaves_no_host_measure_on_the_base(self):
        sys = translation_system(6, 1, (1, 0), (2, 0))
        magic_extension(sys)
        assert sys.cached("host_measure", lambda: "absent") == "absent"

    def test_rejected_fiber_raises(self, monkeypatch):
        monkeypatch.setattr(joinings, "is_magic", lambda sys: MagicReport(False, None, "stub", 0, 0))
        with pytest.raises(ExtensionConstructionError, match=r"fiber over point 0 \(size=16 mass=1/4\): not magic"):
            magic_extension(z4_diagonal())


class TestPairLayer:
    def test_orbits_are_the_closure_of_the_pair_support(self):
        for sys in lattices(24) + lattice_unions(8) + (product_grid(6, 6),):
            hm = host_measure(sys)
            listed = [orbit for _, orbit in hm.orbits()]
            orbits = {frozenset(orbit) for orbit in listed}
            assert len(orbits) == len(listed) and orbits == closure_orbits(sys)
            assert all(len(orbit) == len(set(orbit)) for orbit in listed)

    def test_one_grid_per_joint_orbit(self):
        # the host measure keeps the orbit grid of each joint orbit's first
        # point and p = |J| / b, nothing per pair
        for sys in lattices(12) + lattice_unions(6) + (product_grid(6, 6),):
            hm = host_measure(sys)
            firsts = [block[0] for block in partition_st(sys).blocks()]
            assert [grid for _, _, grid in hm.parts] == [sys.orbit_grid(y)[2] for y in firsts]
            assert sum(p * len(grid[0]) for _, p, grid in hm.parts) == sys.n

    def test_measurability_matches_the_spread_check(self):
        systems = lattices(16) + lattice_unions(7) + (product_grid(6, 6),)
        verdicts = [measurability_check(sys) for sys in systems]
        assert verdicts == [measurable_by_spread(sys) for sys in systems]
        assert (len(systems), verdicts.count(False)) == (685, 482)

    def test_integrals_and_verdicts_leave_the_measures_unlisted(self):
        sys = translation_system(6, 2, (1, 0), (2, 1))
        f = Observable(tuple(F(x % 5 - 2, x % 3 + 1) for x in range(sys.n)))
        host_integral(host_measure(sys), (f, f, f, f))
        measurability_check(sys)
        for kind in ("fourfold", "windowed_sn"):
            run_average(sys, AverageSpec(kind, (f,) * AVERAGE_KINDS[kind], 0, (1, 4)))
        assert "mu_st" not in vars(host_measure(sys))

    def test_the_pair_layer_stays_small_on_a_large_grid(self):
        # 3,600 points and 216,000 pairs: per-pair Fractions would take
        # seconds and a peak of about 80 MB here
        sys = product_grid(60, 60)
        start = time.perf_counter()
        host_measure(sys)
        assert measurability_check(sys)
        assert time.perf_counter() - start < 1.0
        sys = product_grid(60, 60)
        tracemalloc.start()
        try:
            host_measure(sys)
            measurability_check(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25_000_000

    def test_the_host_integral_stays_small_on_the_z120_fiber_shape(self):
        # product_grid(120, 40) is the fiber shape of the Z_120 extension:
        # 4,800 points in one joint orbit and 576,000 pairs in its
        # (T x T)-orbits; listed as pair tuples they peaked at 44 MB
        sys = product_grid(120, 40)
        f = Observable(tuple(F(x % 7 - 3, x % 5 + 1) for x in range(sys.n)))
        tracemalloc.start()
        try:
            value = host_integral(host_measure(sys), (f, f, f, f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value > 0 and peak < 5_000_000


class TestMeasurability:
    def test_product_grid_measurable(self):
        assert measurability_check(product_grid(2, 3))

    def test_z4_not_measurable(self):
        assert not measurability_check(z4_diagonal())
