"""Window averages, the window bound, decomposition, and the report driver."""

import math
from fractions import Fraction
from random import Random

import pytest

from ergocubes import averaging, joinings
from ergocubes.averaging import (
    AVERAGE_KINDS,
    birkhoff_average,
    box_hits,
    check_bound_average,
    check_telescoping,
    cubic_average,
    decompose_and_converge,
    fourfold_average,
    fourfold_average_naive,
    run_average,
    schedule_report,
    window_counts,
    windowed_sn,
    windowed_sn_naive,
)
from ergocubes.core import DimensionError, Observable, PreconditionError, integrate
from ergocubes.finite import (
    GroupElement,
    S_GEN,
    T_GEN,
    diagonal_grid,
    product_grid,
    random_ergodic_system,
    random_system,
    translation_system,
    z4_diagonal,
)
from ergocubes.joinings import host_measure, host_seminorm
from ergocubes.cli import main
from ergocubes.verify import exhaustive_bound_sweep, find_bound_constant, verify_decomposition
from oracles import (
    draws,
    lattice_unions,
    lattices,
    literal_birkhoff,
    literal_box_hits,
    literal_cubic,
    literal_cycle_length,
    mixed_observable,
    random_observable,
    sign_observable,
    three_track_decomposition,
    z4_observable,
)

F = Fraction


class TestWindowCounts:
    def test_matches_literal_count(self):
        for N in range(1, 20):
            for period in range(1, 9):
                counts = window_counts(N, period)
                assert counts == [
                    sum(1 for i in range(N) if i % period == r) for r in range(period)
                ]
                assert sum(counts) == N


class TestCubicAverage:
    def test_z4_hand_values(self):
        sys = z4_diagonal()
        f = z4_observable()
        assert cubic_average(sys, f, f, f, 0, 1) == 1
        assert cubic_average(sys, f, f, f, 0, 2) == F(1, 4)
        assert cubic_average(sys, f, f, f, 0, 4) == F(1, 4)
        # the pointwise average genuinely depends on the start
        assert cubic_average(sys, f, f, f, 1, 4) == 0

    def test_matches_literal_double_loop(self):
        rng = Random(311)
        for draw in draws(25):
            sys = random_system(rng)
            f1, f2, f3 = (draw(rng, sys.n) for _ in range(3))
            x = rng.randrange(sys.n)
            N = rng.randint(1, 7)
            total = F(0)
            si = x
            for _ in range(N):
                tj = x
                stij = si
                for _ in range(N):
                    total += f1.values[si] * f2.values[tj] * f3.values[stij]
                    tj = sys.T[tj]
                    stij = sys.T[stij]
                si = sys.S[si]
            assert cubic_average(sys, f1, f2, f3, x, N) == total / N**2

    def test_rejects_bad_arguments(self):
        sys = z4_diagonal()
        f = z4_observable()
        with pytest.raises(DimensionError, match="start point 7 outside"):
            cubic_average(sys, f, f, f, 7, 2)
        with pytest.raises(ValueError, match="window size must be positive"):
            cubic_average(sys, f, f, f, 0, 0)
        with pytest.raises(DimensionError, match="observable on 3 points vs system on 4"):
            cubic_average(sys, f, f, Observable((F(1), F(0), F(0))), 0, 2)


class TestFourfoldAverage:
    def test_z4_equals_seminorm_at_full_periods(self):
        sys = z4_diagonal()
        f = z4_observable()
        oracle = host_seminorm(host_measure(sys), f).fourth_power
        assert oracle == F(1, 8)
        for x in range(4):
            for N in (4, 8, 12):
                assert fourfold_average(sys, f, f, f, f, x, N) == oracle
        assert fourfold_average(sys, f, f, f, f, 0, 1) == 1

    def test_matches_naive(self):
        rng = Random(313)
        for draw in draws(15):
            sys = random_system(rng, max_order=3)
            obs = [draw(rng, sys.n) for _ in range(4)]
            x = rng.randrange(sys.n)
            N = rng.randint(1, 4)
            assert fourfold_average(sys, *obs, x, N) == fourfold_average_naive(
                sys, *obs, x, N
            )

    @pytest.mark.parametrize(
        "sys, sizes",
        [(diagonal_grid(6, 4), (1, 3, 4, 5, 8)), (product_grid(4, 6), (1, 5, 6, 7, 12))],
        ids=["diagonal-6x4", "product-4x6"],
    )
    def test_matches_naive_where_the_window_count_is_flat_or_short(self, sys, sizes):
        # orbit grids 12 x 4 and 4 x 6; with (q, rho) = divmod(N, b) the sizes
        # cover q = 0, rho = 0, q = rho = 1 and N = 1
        rng = Random(337)
        for N in sizes:
            for x in (0, sys.n - 1):
                obs = [mixed_observable(rng, sys.n) for _ in range(4)]
                assert fourfold_average(sys, *obs, x, N) == fourfold_average_naive(sys, *obs, x, N), (N, x)

    def test_stabilizes_at_joining_integral_on_ergodic_systems(self):
        rng = Random(317)
        for _ in range(10):
            sys = random_ergodic_system(rng, max_order=3)
            obs = [random_observable(rng, sys.n, -1, 1) for _ in range(4)]
            oracle = integrate(host_measure(sys).mu_st, obs)
            x = rng.randrange(sys.n)
            a, b, _ = sys.orbit_grid(x)
            period = math.lcm(a, b)
            assert fourfold_average(sys, *obs, x, period) == oracle
            assert fourfold_average(sys, *obs, x, 2 * period) == oracle


class TestWindowedSn:
    def test_z4_hand_values(self):
        sys = z4_diagonal()
        f = z4_observable()
        assert windowed_sn(sys, f, 0, 1) == 1
        assert windowed_sn(sys, f, 0, 2) == F(1, 8)
        assert windowed_sn(sys, f, 0, 4) == F(1, 8)

    def test_equals_seminorm_at_full_periods(self):
        rng = Random(331)
        for _ in range(12):
            sys = random_ergodic_system(rng, max_order=3)
            f = random_observable(rng, sys.n, -1, 1)
            oracle = host_seminorm(host_measure(sys), f).fourth_power
            x = rng.randrange(sys.n)
            a, b, _ = sys.orbit_grid(x)
            period = math.lcm(a, b)
            assert windowed_sn(sys, f, x, period) == oracle

    def test_matches_naive(self):
        rng = Random(337)
        for draw in draws(15):
            sys = random_system(rng, max_order=3)
            f = draw(rng, sys.n)
            x = rng.randrange(sys.n)
            N = rng.randint(1, 4)
            assert windowed_sn(sys, f, x, N) == windowed_sn_naive(sys, f, x, N)

    def test_nonnegative(self):
        rng = Random(347)
        for _ in range(30):
            sys = random_system(rng)
            f = random_observable(rng, sys.n)
            assert windowed_sn(sys, f, rng.randrange(sys.n), rng.randint(1, 6)) >= 0


class TestBirkhoffAverage:
    def test_one_dimensional_hand_values(self):
        sys = z4_diagonal()
        f = z4_observable()
        assert birkhoff_average(sys, f, 0, [S_GEN], 2) == F(1, 2)
        assert birkhoff_average(sys, f, 0, [S_GEN], 3) == 0
        assert birkhoff_average(sys, f, 0, [S_GEN], 4) == 0

    def test_two_dimensional_full_period_recovers_measure(self):
        sys = product_grid(2, 3)
        f = Observable.indicator(6, 0)
        assert birkhoff_average(sys, f, 0, [S_GEN, T_GEN], 6) == F(1, 6)

    def test_matches_literal_box(self):
        rng = Random(349)
        for draw in draws(20):
            sys = random_system(rng)
            f = draw(rng, sys.n)
            x = rng.randrange(sys.n)
            N = rng.randint(1, 6)
            assert birkhoff_average(sys, f, x, [S_GEN, T_GEN], N) == literal_birkhoff(sys, f, x, [S_GEN, T_GEN], N)

    def test_matches_a_literal_walk_on_non_free_systems(self):
        rng = Random(359)
        systems = [z4_diagonal(), diagonal_grid(2, 3), translation_system(8, 1, (1, 0), (3, 0))]
        systems += [random_system(rng, max_order=3) for _ in range(6)]
        gen_lists = (
            [GroupElement(2, -1)],
            [GroupElement(1, 3), GroupElement(-1, 2)],
            [GroupElement(0, 0)],
            [GroupElement(-3, 0), T_GEN],
        )
        for sys in systems:
            f = mixed_observable(rng, sys.n)
            for gens in gen_lists:
                for x in range(sys.n):
                    N = rng.randint(1, 7)
                    assert birkhoff_average(sys, f, x, gens, N) == literal_birkhoff(sys, f, x, gens, N)

    def test_requires_generators(self):
        with pytest.raises(ValueError, match="at least one generator"):
            birkhoff_average(z4_diagonal(), z4_observable(), 0, [], 2)


class TestBoxHits:
    def test_grid_steps_match_a_literal_walk(self):
        rng = Random(367)
        cases = 0
        for d in range(1, 5):
            for _ in range(8):
                a, b = rng.randint(1, 5), rng.randint(1, 5)
                gens = [GroupElement(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(d)]
                gens[rng.randrange(d)] = GroupElement(rng.choice((0, a)), rng.choice((0, b)))  # period 1
                periods = [math.lcm(a // math.gcd(g.i, a), b // math.gcd(g.j, b)) for g in gens]

                def step(t, cell):
                    return ((cell[0] + gens[t].i) % a, (cell[1] + gens[t].j) % b)

                for N in range(1, 8 if d < 4 else 6):
                    start = (rng.randrange(a), rng.randrange(b))
                    assert box_hits(step, start, periods, N) == literal_box_hits(step, start, d, N)
                    cases += N < max(periods)
        assert cases >= 20  # windows below some period

    def test_permutation_steps_match_a_literal_walk(self):
        rng = Random(373)
        for d in range(1, 5):
            for _ in range(6):
                sys = random_system(rng, max_order=5, max_components=2)
                gens = [GroupElement(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(d - 1)] + [GroupElement(0, 0)]
                perms = [sys.group_perm(g) for g in gens]
                x = rng.randrange(sys.n)
                periods = [literal_cycle_length(perm, x) for perm in perms]
                assert periods[-1] == 1
                for N in range(1, 8 if d < 4 else 6):
                    step = lambda t, p: perms[t][p]  # noqa: E731
                    assert box_hits(step, x, periods, N) == literal_box_hits(step, x, d, N)

    def test_counts_fill_the_box(self):
        hits = box_hits(lambda t, p: (p + 1) % 5, 0, [5, 5, 5], 7)
        assert sum(hits.values()) == 7**3 and set(hits) == set(range(5))


class TestScheduleReport:
    def test_rows_follow_the_schedule(self):
        calls = []

        def value(N):
            calls.append(N)
            return F(1, N)

        report = schedule_report((3, 1, 8), value, F(1, 2), {"kind": "probe"})
        assert calls == [3, 1, 8]
        assert [row.N for row in report.rows] == [3, 1, 8]
        assert [row.value for row in report.rows] == [F(1, 3), F(1), F(1, 8)]
        assert [row.abs_error for row in report.rows] == [F(1, 6), F(1, 2), F(3, 8)]
        assert all(row.reference == F(1, 2) and row.wall_time >= 0 for row in report.rows)
        assert report.metadata == {"kind": "probe"}

    def test_no_reference_means_no_error(self):
        report = schedule_report([1, 2], lambda N: -1.5 * N, None, {})
        assert [(row.value, row.reference, row.abs_error) for row in report.rows] == [(-1.5, None, None), (-3.0, None, None)]
        assert all(row.wall_time >= 0 for row in report.rows)
        zero = schedule_report([1, 2], lambda N: F(-N), F(0), {})
        assert [row.abs_error for row in zero.rows] == [F(1), F(2)]


class TestWindowBound:
    def test_holds_across_seeded_sup_norm_one_triples(self):
        rng = Random(353)
        for _ in range(60):
            sys = random_system(rng)
            obs = [random_observable(rng, sys.n, -1, 1) for _ in range(3)]
            x = rng.randrange(sys.n)
            N = rng.randint(1, 8)
            check = check_bound_average(sys, *obs, x, N)
            assert check.holds
            assert check.lhs <= check.rhs

    def test_tight_at_constants(self):
        sys = product_grid(2, 3)
        one = Observable.constant(6, 1)
        check = check_bound_average(sys, one, one, one, 0, 5)
        assert check.lhs == check.rhs == 1

    def test_rejects_large_observables(self):
        sys = z4_diagonal()
        big = Observable((F(2), F(0), F(0), F(0)))
        ok = z4_observable()
        with pytest.raises(PreconditionError, match="f1 has sup norm 2 > 1"):
            check_bound_average(sys, big, ok, ok, 0, 2)
        with pytest.raises(PreconditionError, match="f3 has sup norm 2 > 1"):
            check_bound_average(sys, ok, ok, big, 0, 2)


class TestTelescoping:
    def test_identity_on_seeded_sequences(self):
        rng = Random(359)
        for _ in range(40):
            k = rng.randint(1, 6)
            a = [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(k)]
            b = [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(k)]
            check = check_telescoping(a, b)
            assert check.identity

    def test_bound_flag_only_for_contractions(self):
        inside = check_telescoping([F(1, 2), F(-1, 3)], [F(1), F(0)])
        assert inside.identity and inside.bound
        outside = check_telescoping([F(2)], [F(1)])
        assert outside.identity and outside.bound is None

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError, match="lengths differ"):
            check_telescoping([F(1)], [F(1), F(0)])

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="floats are not allowed"):
            check_telescoping([0.1, 0.2], [0.3, 0.4])
        assert check_telescoping(["1/2", 1], [F(1, 3), "0"]).identity


class TestDecomposition:
    def test_product_grid_limit_formula(self):
        sys = product_grid(2, 3)
        f1 = Observable((F(1), F(0), F(-1), F(1), F(2), F(0)))
        f2 = Observable((F(0), F(1), F(1), F(-1), F(0), F(2)))
        f3 = Observable((F(1), F(-1), F(0), F(2), F(1), F(-2)))
        report = decompose_and_converge(sys, f1, f2, f3, 0, [1, 2, 3, 6, 12])
        # on this product the joint invariant partition is discrete, so the
        # limit is the factored full-window average, computable directly
        expected = (
            sum(
                (
                    f1.values[3 * u] * f2.values[v] * f3.values[3 * u + v]
                    for u in range(2)
                    for v in range(3)
                ),
                F(0),
            )
            / 6
        )
        for row in report.rows:
            assert row.value == cubic_average(sys, f1, f2, f3, 0, row.N)
            assert row.reference == expected
            assert row.abs_error == abs(row.value - expected)
        by_n = {row.N: row for row in report.rows}
        assert by_n[6].value == expected
        assert by_n[12].value == expected
        assert report.to_csv() == (
            "N,value,reference,abs_error\n1,0/1,-1/3,1/3\n2,0/1,-1/3,1/3\n3,-1/3,-1/3,0/1\n6,-1/3,-1/3,0/1\n12,-1/3,-1/3,0/1\n"
        )

    def test_minus_one_sixth_case(self):
        sys = product_grid(2, 3)
        f1 = Observable((F(0), F(0), F(0), F(-1), F(0), F(0)))
        f2 = Observable((F(1), F(1), F(1), F(0), F(0), F(0)))
        f3 = Observable((F(0), F(1), F(0), F(0), F(1), F(0)))
        report = decompose_and_converge(sys, f1, f2, f3, 0, [6, 12])
        # start 0: f2 is 1 on its whole T-cycle {0, 1, 2}; every odd i sees
        # f1(S^i 0) = f1(3) = -1, and f3(S^i T^j 0) = f3(T^j 3) is 1 only at
        # T 3 = 4, one j in three: -(1/2)(1/3)
        for row in report.rows:
            assert row.value == row.reference == F(-1, 6)

    def test_exact_sum_and_squeeze_seeded(self):
        # the three tracks of the reference add up and the mean-zero track is
        # squeezed by its S_N bound; the report's rows are its direct track
        # against its limit, reached at every full period
        rng = Random(367)
        count = 0
        while count < 10:
            a, b = rng.randint(2, 4), rng.randint(2, 4)
            sys = product_grid(a, b)
            f1, f2, f3 = (random_observable(rng, sys.n, -1, 1) for _ in range(3))
            x = rng.randrange(sys.n)
            lcm = math.lcm(a, b)
            schedule = sorted({1, 2, lcm, 2 * lcm})
            report = decompose_and_converge(sys, f1, f2, f3, x, schedule)
            tracks = three_track_decomposition(sys, f1, f2, f3, x, schedule)
            assert tracks.exact_sum
            for row, track in zip(report.rows, tracks.rows, strict=True):
                assert track.track_a + track.track_b == track.direct
                assert track.track_b**4 <= track.sn_bound
                assert (row.N, row.value, row.reference) == (track.N, track.direct, tracks.limit)
            assert report.rows[-1].abs_error == report.rows[-2].abs_error == 0
            count += 1

    def test_matches_the_three_track_route_seeded(self):
        # one draw of observables and start on each system the routes refuse, 22 on
        # each they accept: the 12 magic free types of index <= 12 and the 6 x 6 grid
        rng = Random(409)
        accepted = 0
        for sys in lattices(12) + lattice_unions(6) + (product_grid(6, 6),):
            for _ in range(22):
                fs = [mixed_observable(rng, sys.n) for _ in range(3)]
                x = rng.randrange(sys.n)
                period = math.lcm(*sys.orbit_grid(x)[:2])
                schedule = sorted({1, max(1, period // 2), period, 2 * period})
                outcomes = []
                for route in (decompose_and_converge, three_track_decomposition):
                    try:
                        outcomes.append(route(sys, *fs, x, schedule))
                    except PreconditionError as err:
                        outcomes.append(str(err))
                report, tracks = outcomes
                if isinstance(report, str) or isinstance(tracks, str):
                    assert report == tracks, (sys, x, schedule)
                    break
                accepted += 1
                # W is discrete on every system the route accepts: the mean-zero
                # track and its S_N bound vanish, and the tracks add up exactly
                assert tracks.exact_sum
                for track in tracks.rows:
                    assert track.track_a + track.track_b == track.direct
                    assert track.track_b == 0 and track.sn_bound == 0
                assert [(row.N, row.value, row.reference) for row in report.rows] == [
                    (track.N, track.direct, tracks.limit) for track in tracks.rows
                ], (sys, x, schedule)
        assert accepted == 13 * 22

    def test_rows_are_the_cubic_averages_alone(self, monkeypatch):
        for name, module in (("windowed_sn", averaging), ("cond_exp", joinings), ("exact_null_space", joinings)):
            monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{name} called"))
        sys = product_grid(3, 4)
        f = mixed_observable(Random(419), sys.n)
        schedule = [1, 5, 12, 24]
        report = decompose_and_converge(sys, f, f, f, 2, schedule)
        assert [row.value for row in report.rows] == [cubic_average(sys, f, f, f, 2, N) for N in schedule]

    def test_the_verify_check_sees_a_kernel_off_at_the_full_period(self, monkeypatch, capsys):
        # a cubic table one too high at every N that is a multiple of
        # lcm(a, b): the rows there miss the limit, and the suite's one
        # check reports it
        table = averaging._linear_table

        def off_by_one(sys, kind, fs, x):
            a, b, _ = sys.orbit_grid(x)
            window = table(sys, kind, fs, x)
            return lambda N: window(N) + (N % math.lcm(a, b) == 0)

        monkeypatch.setattr(averaging, "_linear_table", off_by_one)
        result = verify_decomposition(seed=0, trials=3)
        assert result.failures == len(result.findings) == 6
        assert all(" averages do not stabilize at the full period N=" in finding for finding in result.findings)
        assert main(["verify", "--suite", "decompose", "--trials", "3"]) == 2
        assert "decompose  FAIL" in capsys.readouterr().out

    def test_rejects_non_magic_system(self):
        f = z4_observable()
        with pytest.raises(PreconditionError, match="not magic"):
            decompose_and_converge(z4_diagonal(), f, f, f, 0, [4])

    def test_checks_arguments_before_the_verdicts(self):
        # z4_diagonal is neither magic nor free, but a bad point or
        # observable is reported first, before magic is decided
        f = z4_observable()
        with pytest.raises(DimensionError, match="start point 99 outside 0..3"):
            decompose_and_converge(z4_diagonal(), f, f, f, 99, [4])
        with pytest.raises(DimensionError, match="observable on 3 points vs system on 4"):
            decompose_and_converge(z4_diagonal(), f, f, Observable.constant(3, 1), 0, [4])

    def test_rejects_bad_schedule(self):
        sys = product_grid(2, 3)
        one = Observable.constant(6, 1)
        with pytest.raises(ValueError, match="positive window sizes"):
            decompose_and_converge(sys, one, one, one, 0, [])

    def test_rejects_non_increasing_schedule(self):
        sys = product_grid(2, 3)
        one = Observable.constant(6, 1)
        for schedule in ([2, 2], [4, 3]):
            with pytest.raises(ValueError, match="strictly increasing"):
                decompose_and_converge(sys, one, one, one, 0, schedule)


class TestExhaustiveSweep:
    def test_product_grid_sweep_is_tight_and_clean(self):
        sys = product_grid(2, 3)
        ns = [1, 2, 3, 4]
        sweep = exhaustive_bound_sweep(sys, ns, F(1), 0)
        assert sweep.violations == ()
        assert sweep.max_ratio == 1
        # every one of the 2^(3n) observable triples is logically covered per N
        assert sweep.checks == 2 ** (3 * sys.n) * len(ns)
        # the evaluated classes are the sign patterns visible to the averages:
        # S-cycle (2) + T-cycle (3) + orbit grid (6) coordinates
        assert sweep.evaluations == 2 ** (2 + 3 + 6) * len(ns)

    def test_small_constant_is_refuted(self):
        sweep = exhaustive_bound_sweep(product_grid(2, 3), [2], F(1, 4), 0)
        assert len(sweep.violations) > 0
        assert sweep.max_ratio > F(1, 4)

    def test_find_bound_constant_returns_one(self):
        c, sweep = find_bound_constant(product_grid(2, 2), [1, 2, 3])
        assert c == 1
        assert sweep.max_ratio == 1
        assert sweep.violations == ()

    def test_agrees_with_direct_checks_on_decoded_patterns(self):
        # cross-validate the sweep against check_bound_average on a sample
        # of full +-1 observables
        sys = product_grid(2, 2)
        rng = Random(373)
        worst = F(0)
        for _ in range(200):
            obs = [sign_observable(rng, sys.n) for _ in range(3)]
            N = rng.randint(1, 4)
            check = check_bound_average(sys, *obs, 0, N)
            assert check.holds
            if check.rhs:
                worst = max(worst, check.lhs / check.rhs)
        sweep = exhaustive_bound_sweep(sys, [1, 2, 3, 4], F(1), 0)
        assert worst <= sweep.max_ratio == 1

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError, match="window sizes must be positive"):
            exhaustive_bound_sweep(product_grid(2, 2), [], F(1), 0)

    def test_rejects_start_outside_the_system(self):
        for start in (-1, 4):
            with pytest.raises(DimensionError, match=f"start point {start} outside 0\\.\\.3"):
                exhaustive_bound_sweep(product_grid(2, 2), [2], F(1), start)


class TestAverageSpecAndDriver:
    def test_spec_validation(self):
        sys, one = z4_diagonal(), Observable.constant(4, 1)
        with pytest.raises(ValueError, match="unknown average kind"):
            run_average(sys, "quintic", (one,), 0, (1, 2))
        with pytest.raises(DimensionError, match="needs 3 observables, got 1"):
            run_average(sys, "cubic", (one,), 0, (1, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            run_average(sys, "windowed_sn", (one,), 0, (4, 4))
        assert set(AVERAGE_KINDS) == {
            "cubic",
            "fourfold",
            "windowed_sn",
            "birkhoff_1d",
            "birkhoff_2d",
        }

    def test_fourfold_driver_reference_and_errors(self):
        sys = z4_diagonal()
        f = z4_observable()
        report = run_average(sys, "fourfold", (f, f, f, f), 0, (1, 2, 4, 8))
        assert [row.N for row in report.rows] == [1, 2, 4, 8]
        assert all(row.reference == F(1, 8) for row in report.rows)
        by_n = {row.N: row for row in report.rows}
        assert by_n[4].abs_error == 0
        assert by_n[8].abs_error == 0
        assert by_n[1].abs_error == abs(by_n[1].value - F(1, 8))
        assert report.metadata["kind"] == "fourfold"

    def test_windowed_driver_reference(self):
        sys = z4_diagonal()
        f = z4_observable()
        report = run_average(sys, "windowed_sn", (f,), 0, (4,))
        assert report.rows[0].value == F(1, 8)
        assert report.rows[0].reference == F(1, 8)
        assert report.rows[0].abs_error == 0

    def test_quadratic_references_are_the_rows_at_the_full_period(self):
        # from x the quadratic averages tend to the joining integral of x's
        # ergodic component, and at N = lcm(a, b) the row is one full pass
        # over x's orbit grid, which is that integral
        rng = Random(509)
        starts = off_component = 0
        for sys in lattices(12) + lattice_unions(6):
            for x in range(sys.n):
                period = math.lcm(literal_cycle_length(sys.S, x), literal_cycle_length(sys.T, x))
                for kind in ("fourfold", "windowed_sn"):
                    fs = tuple(mixed_observable(rng, sys.n) for _ in range(AVERAGE_KINDS[kind]))
                    (row,) = run_average(sys, kind, fs, x, (period,)).rows
                    assert row.value == row.reference, (sys, x, kind)
                    off_component += row.reference != joinings.host_integral(host_measure(sys), fs * (4 // len(fs)))
                starts += 1
        assert (starts, off_component) == (2304, 2401)

    def test_birkhoff_driver_reference_is_full_period_value(self):
        sys = product_grid(2, 3)
        f = Observable.indicator(6, 0)
        report = run_average(sys, "birkhoff_2d", (f,), 0, (6, 12))
        assert all(row.reference == F(1, 6) for row in report.rows)
        assert all(row.abs_error == 0 for row in report.rows)

    def test_cubic_driver_has_no_reference(self):
        sys = z4_diagonal()
        f = z4_observable()
        report = run_average(sys, "cubic", (f, f, f), 0, (1, 2))
        assert all(row.reference is None for row in report.rows)
        assert all(row.abs_error is None for row in report.rows)

    def test_abs_error_is_the_fraction_difference(self):
        # the integer abs_error against the Fraction route, all five kinds on
        # every lattice type of index <= 12, windows short, full and past it
        rng = Random(503)
        for sys in lattices(12):
            x = rng.randrange(sys.n)
            period = math.lcm(*sys.orbit_grid(x)[:2])
            schedule = sorted({1, 2, period, 2 * period + 1})
            for kind, count in AVERAGE_KINDS.items():
                fs = tuple(mixed_observable(rng, sys.n) for _ in range(count))
                for row in run_average(sys, kind, fs, x, schedule).rows:
                    want = None if kind == "cubic" else abs(row.value - row.reference)
                    assert row.abs_error == want, (sys, x, kind, row.N)

    def test_report_serialization_golden(self):
        sys = z4_diagonal()
        f = z4_observable()
        report = run_average(sys, "windowed_sn", (f,), 0, (4,))
        assert report.to_csv().splitlines() == [
            "N,value,reference,abs_error",
            "4,1/8,1/8,0/1",
        ]
        text = report.to_text()
        assert "# kind: windowed_sn" in text
        assert "4  1/8  1/8  0/1" in text


BIRKHOFF_GENS = {"birkhoff_1d": [S_GEN], "birkhoff_2d": [S_GEN, T_GEN]}


class TestLinearReports:
    def test_rows_match_the_literal_box_sums(self):
        # every window up to twice the full period lcm(a, b), and one past
        # it: each residue pair (N mod a, N mod b) with quotients 0, 1 and 2
        rng = Random(487)
        for sys in lattices(12) + lattice_unions(6):
            x = rng.randrange(sys.n)
            f1, f2, f3 = (mixed_observable(rng, sys.n) for _ in range(3))
            period = math.lcm(literal_cycle_length(sys.S, x), literal_cycle_length(sys.T, x))
            schedule = tuple(range(1, 2 * period + 2))
            report = run_average(sys, "cubic", (f1, f2, f3), x, schedule)
            assert [row.value for row in report.rows] == [literal_cubic(sys, f1, f2, f3, x, N) for N in schedule], (sys, x)
            for kind, gens in BIRKHOFF_GENS.items():
                want = [literal_birkhoff(sys, f3, x, gens, N) for N in schedule]
                report = run_average(sys, kind, (f3,), x, schedule)
                assert [row.value for row in report.rows] == want, (sys, x, kind)
                assert {row.reference for row in report.rows} == {want[period - 1]}, (sys, x, kind)

    def test_birkhoff_rows_at_a_huge_window_match_the_box_hits(self):
        N = 2**61 - 1
        rng = Random(491)
        for sys in lattices(12) + lattice_unions(6):
            x = rng.randrange(sys.n)
            f = mixed_observable(rng, sys.n)
            for kind, gens in BIRKHOFF_GENS.items():
                report = run_average(sys, kind, (f,), x, (N,))
                assert report.rows[0].value == birkhoff_average(sys, f, x, gens, N), (sys, x, kind)

    def test_one_table_per_report(self, monkeypatch):
        # a 61-row report builds its table as often as a 1-row one: once
        builds = []
        table = averaging._linear_table
        monkeypatch.setattr(averaging, "_linear_table", lambda *args: builds.append(args[1]) or table(*args))
        sys = product_grid(3, 4)
        f = mixed_observable(Random(499), sys.n)
        routes = {
            kind: lambda schedule, kind=kind: run_average(sys, kind, (f,) * AVERAGE_KINDS[kind], 2, schedule)
            for kind in ("cubic", "birkhoff_1d", "birkhoff_2d")
        }
        routes["decompose_and_converge"] = lambda schedule: decompose_and_converge(sys, f, f, f, 2, schedule)
        for name, route in routes.items():
            counts = []
            for schedule in ((2**60,), tuple(2**k for k in range(61))):
                builds.clear()
                route(schedule)
                counts.append(len(builds))
            assert counts == [1, 1], name
