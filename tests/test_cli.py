"""Command-line interface: subcommands, exit codes, file formats."""

import json
import os
import stat
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from ergocubes import cli, cubes, joinings
from ergocubes.cli import main
from ergocubes.cubes import cube_space, two_sided_cube
from ergocubes.finite import (
    S_GEN,
    T_GEN,
    FiniteMPS,
    product_grid,
    system_to_dict,
    translation_system,
    z4_diagonal,
)
from ergocubes.joinings import MagicReport, host_measure, measurability_check, rel_indep_square
from oracles import lattice_unions, lattices, listed_mu_st, magic_by_null_space, measurable_by_spread


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_system(path, sys):
    path.write_text(json.dumps(system_to_dict(sys)))
    return str(path)


class TestAnalyze:
    def test_finite_builtin(self, capsys):
        code, out, err = run(capsys, "analyze", "--builtin", "z4-diagonal")
        assert code == 0 and err == ""
        assert "points: 4" in out
        assert "ergodic: yes" in out
        assert "free: no (witness: S^1 T^3 = identity)" in out or "free: no" in out
        assert "magic: no (mean-zero observable with positive seminorm)" in out
        assert "quadruple support: 64" in out
        assert "cube space: 64" in out

    def test_torus_builtin(self, capsys):
        code, out, err = run(capsys, "analyze", "--builtin", "torus-sqrt23")
        assert code == 0
        assert "kind: torus rotations" in out
        assert "generic pair declared: yes" in out

    def test_system_file(self, capsys, tmp_path):
        path = write_system(tmp_path / "grid.json", translation_system(2, 3, (1, 0), (0, 1)))
        code, out, _ = run(capsys, "analyze", "--system", path)
        assert code == 0
        assert "points: 6" in out
        assert "magic: yes" in out

    def test_support_and_measurability_lines_match_the_listed_routes(self, capsys, tmp_path):
        # the count lines against the listed measures and the listed cube
        # space, and the verdict against the spread over literal-cycle W-blocks
        systems = lattices(9) + lattice_unions(6)
        measurable = 0
        for k, system in enumerate(systems):
            verdict = measurable_by_spread(system)
            measurable += verdict
            expected = (
                f"invariant pairing measurable: {'yes' if verdict else 'no'}\n"
                f"pair support: {len(rel_indep_square(system).entries)}\n"
                f"quadruple support: {len(listed_mu_st(system))}\n"
                f"cube space: {cube_space(system).size}\n"
            )
            code, out, err = run(capsys, "analyze", "--system", write_system(tmp_path / f"{k}.json", system))
            assert (code, err) == (0, "") and out.endswith(expected)
        assert (len(systems), measurable) == (295, 113)

    def test_magic_and_kernel_lines_match_the_null_space_route(self, capsys, tmp_path):
        # analyze reads these lines off W; the reference decides them from
        # the listed mu_{S,T}, its slice map's rank and the mean-zero basis
        systems = lattices(12) + lattice_unions(8)
        magic = 0
        for k, system in enumerate(systems):
            report = magic_by_null_space(system)
            magic += report.is_magic
            expected = (
                f"magic: {'yes' if report.is_magic else f'no ({report.direction})'}\n"
                f"kernel dimension: {report.seminorm_kernel_dim}   mean-zero dimension: {report.mean_zero_dim}\n"
            )
            code, out, err = run(capsys, "analyze", "--system", write_system(tmp_path / f"{k}.json", system))
            assert (code, err) == (0, "") and expected in out
        assert (len(systems), magic) == (1043, 285)

    def test_time_and_memory_follow_the_orbit_partitions(self, capsys, tmp_path):
        # product_grid(120, 40): 4,800 points, a null space over 4,800
        # columns and 23,040,000 quadruples on the null-space route
        path = write_system(tmp_path / "grid.json", product_grid(120, 40))
        begin = time.perf_counter()
        code, out, err = run(capsys, "analyze", "--system", path)
        elapsed = time.perf_counter() - begin
        tracemalloc.start()
        try:
            assert run(capsys, "analyze", "--system", path) == (code, out, err)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert "magic: yes\nkernel dimension: 0   mean-zero dimension: 0\n" in out
        assert out.endswith("quadruple support: 23040000\ncube space: 23040000\n")
        assert elapsed < 2 and peak < 5 * 2**20

    def test_unknown_builtin(self, capsys):
        code, out, err = run(capsys, "analyze", "--builtin", "nonesuch")
        assert code == 1
        assert "error: unknown builtin 'nonesuch'" in err

    def test_builtin_and_system_conflict(self, capsys, tmp_path):
        path = write_system(tmp_path / "x.json", z4_diagonal())
        code, _, err = run(capsys, "analyze", "--builtin", "z4-diagonal", "--system", path)
        assert code == 1
        assert "either --builtin or --system" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--system", str(tmp_path / "absent.json"))
        assert code == 1
        assert "cannot read" in err

    def test_no_system_given(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 1
        assert "a system is required" in err

    def test_mistyped_system_fields(self, capsys, tmp_path):
        path = tmp_path / "typed.json"
        for doc, message in (
            ({"n": 1, "weights": 5, "S": [0], "T": [0]}, "weights: expected a list, got int"),
            ({"n": 2, "weights": ["1/2", "1/2"], "S": [0, True], "T": [0, 1]}, "S: expected 2 integer entries"),
        ):
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "analyze", "--system", str(path))
            assert code == 1 and out == ""
            assert err == f"error: {path}: {message}\n"

    def test_weight_with_a_huge_decimal_exponent(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 2, "weights": ["1e-999999999", "1"], "S": [0, 1], "T": [0, 1]}))
        code, out, err = run(capsys, "analyze", "--system", str(path))
        assert code == 1 and out == ""
        limit = sys.int_info.default_max_str_digits
        assert err == f"error: {path}: weights: not a p/q rational (decimal exponent above {limit} in size)\n"

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", "--system", str(path))
        assert code == 1
        assert "not valid JSON" in err

    def test_undecodable_or_deeply_nested_files(self, capsys, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{\x00}\x00")
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100000 + "]" * 100000)
        first = write_system(tmp_path / "s.json", translation_system(5, 1, (1, 0), (0, 0)))
        for path in (binary, nested):
            for argv in (["analyze", "--system", str(path)], ["cube", "--system", first, "--identify-with", str(path)]):
                code, out, err = run(capsys, *argv)
                assert code == 1 and out == "", argv
                assert err.count("\n") == 1 and err.startswith(f"error: {path} is not valid JSON: "), argv


class TestAverage:
    def test_windowed_golden_csv(self, capsys):
        code, out, err = run(
            capsys,
            "average",
            "--builtin", "z4-diagonal",
            "--kind", "windowed_sn",
            "--observable", "1,0,-1,0",
            "--schedule", "4",
        )
        assert code == 0 and err == ""
        assert out == "N,value,reference,abs_error\n4,1/8,1/8,0/1\n"

    def test_single_observable_replicated(self, capsys):
        code, out, _ = run(
            capsys,
            "average",
            "--builtin", "z4-diagonal",
            "--kind", "fourfold",
            "--observable", "1,0,-1,0",
            "--schedule", "4,8",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "4,1/8,1/8,0/1"
        assert lines[2] == "8,1/8,1/8,0/1"

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys,
            "average",
            "--builtin", "z4-diagonal",
            "--kind", "windowed_sn",
            "--observable", "1,0,-1,0",
            "--schedule", "4",
            "--format", "text",
        )
        assert code == 0
        assert "# kind: windowed_sn" in out
        assert "4  1/8  1/8  0/1" in out

    def test_tolerance_pass_and_breach(self, capsys):
        base = [
            "average",
            "--builtin", "z4-diagonal",
            "--kind", "windowed_sn",
            "--observable", "1,0,-1,0",
        ]
        code, _, err = run(capsys, *base, "--schedule", "4,8", "--tolerance", "0.001")
        assert code == 0 and err == ""
        # N=1 evaluates to 1 against the reference 1/8: error 7/8
        code, _, err = run(capsys, *base, "--schedule", "1,4", "--tolerance", "0.001")
        assert code == 2
        assert "tolerance breach: worst error 0.875 > 0.001" in err

    def test_tolerance_must_be_finite_and_nonnegative(self, capsys):
        # with --tolerance=nan the 7/8 error at N=1 used to pass, and -1 made
        # a zero error a breach
        base = ["average", "--builtin", "z4-diagonal", "--kind", "fourfold",
                "--observable", "1,0,-1,0", "--schedule", "1"]
        for value in ("nan", "inf", "-1"):
            code, out, err = run(capsys, *base, f"--tolerance={value}")
            assert code == 1 and out == "", value
            assert err == f"error: --tolerance must be a finite number >= 0, got {float(value)}\n"
        assert run(capsys, *base, "--tolerance=0")[0] == 2

    @pytest.mark.parametrize("kind", ["fourfold", "windowed_sn"])
    def test_quadratic_reference_is_the_limit_from_the_start(self, capsys, tmp_path, kind):
        # S swaps 0 and 1 and fixes 2, T is the identity: from 0 the rows tend
        # to the joining integral of the component {0, 1}, 1/4, not 1/6 on
        # the whole space; the N = 1 row is f(0)^4 = 1, 3/4 off
        path = write_system(tmp_path / "swap.json", FiniteMPS([Fraction(1, 3)] * 3, [1, 0, 2], [0, 1, 2]))
        argv = ["average", "--system", path, "--kind", kind, "--observable=1,0,0", "--start", "0"]
        code, out, err = run(capsys, *argv, "--schedule", "2,4,1024", "--tolerance", "0.01")
        assert (code, err) == (0, "")
        assert out == "N,value,reference,abs_error\n2,1/4,1/4,0/1\n4,1/4,1/4,0/1\n1024,1/4,1/4,0/1\n"
        code, out, err = run(capsys, *argv, "--schedule", "1,2", "--tolerance", "0.01")
        assert (code, out.splitlines()[1]) == (2, "1,1/1,1/4,3/4")

    def test_tolerance_requires_reference(self, capsys, tmp_path):
        # refused before any report is written, to stdout or to --out
        argv = [
            "average",
            "--builtin", "z4-diagonal",
            "--kind", "cubic",
            "--observable", "1,0,-1,0",
            "--schedule", "4",
            "--tolerance", "0.5",
        ]
        target = tmp_path / "report.csv"
        for extra in ([], ["--out", str(target)]):
            code, out, err = run(capsys, *argv, *extra)
            assert code == 1 and out == ""
            assert "--tolerance needs a reference value" in err
        assert not target.exists()

    def test_pow2_schedule(self, capsys):
        code, out, _ = run(
            capsys,
            "average",
            "--builtin", "z4-diagonal",
            "--kind", "birkhoff_1d",
            "--observable", "1,0,-1,0",
            "--schedule", "pow2:2..5",
        )
        assert code == 0
        ns = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert ns == ["4", "8", "16", "32"]

    def test_bad_schedules(self, capsys):
        base = [
            "average", "--builtin", "z4-diagonal", "--kind", "cubic",
            "--observable", "1,0,-1,0",
        ]
        for schedule, message in (
            ("8,4", "strictly increasing"),
            ("0,4", "must be positive"),
            ("pow2:9..4", "bad schedule range"),
            ("pow2:x..4", "bad schedule bounds"),
            ("a,b", "bad schedule"),
            ("pow2:0..2000000", "pow2 exponents above"),
            ("pow2:20000..20000", "pow2 exponents above"),
        ):
            code, _, err = run(capsys, *base, "--schedule", schedule)
            assert code == 1, schedule
            assert message in err

    def test_largest_pow2_window_prints(self, capsys):
        # the bound is a quarter of the int-string limit: N**4 has at most that many bits
        k = sys.int_info.default_max_str_digits // 4
        argv = ["average", "--builtin", "grid-2x3", "--kind", "fourfold", "--observable", "1,-1/2,0,1/3,-1,5/7"]
        code, out, _ = run(capsys, *argv, "--schedule", f"pow2:{k}..{k}")
        assert code == 0
        assert out.splitlines()[1].startswith(f"{2**k},")
        code, _, err = run(capsys, *argv, "--schedule", f"pow2:{k + 1}..{k + 1}")
        assert code == 1 and f"pow2 exponents above {k} " in err

    def test_largest_listed_window(self, capsys):
        k = sys.int_info.default_max_str_digits // 4
        argv = ["average", "--builtin", "z4-diagonal", "--kind", "fourfold", "--observable", "1,0,-1,1/2"]
        code, out, _ = run(capsys, *argv, "--schedule", f"4,{2**k}")
        assert code == 0
        assert out.splitlines()[2].startswith(f"{2**k},")
        for schedule in (f"4,{2**k + 1}", f"4,{10**1200 + 1}"):
            code, out, err = run(capsys, *argv, "--schedule", schedule)
            assert code == 1 and out == ""
            assert err == f"error: schedule windows above 2**{k} are not supported\n"

    def test_torus_windows_past_float_range(self, capsys):
        for kind in ("cubic", "birkhoff_1d"):
            code, out, err = run(capsys, "average", "--builtin", "torus-sqrt23", "--kind", kind,
                                 "--trig", "1:0.5:0", "--schedule", "pow2:1030..1030")
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and "at most the largest float" in err
        code, out, _ = run(capsys, "average", "--builtin", "torus-sqrt23", "--kind", "cubic",
                           "--trig", "1:0.5:0", "--schedule", "pow2:1023..1023")
        assert code == 0 and out.splitlines()[1].startswith(f"{2**1023},")

    def test_observable_validation(self, capsys):
        code, _, err = run(
            capsys,
            "average",
            "--builtin", "z4-diagonal",
            "--kind", "cubic",
            "--observable", "1,0",
            "--schedule", "4",
        )
        assert code == 1
        assert "observable has 2 entries, system has 4 points" in err
        code, _, err = run(
            capsys,
            "average",
            "--builtin", "z4-diagonal",
            "--kind", "cubic",
            "--schedule", "4",
        )
        assert code == 1
        assert "at least one --observable" in err

    def test_huge_decimal_exponents(self, capsys):
        for argv in (
            ["--builtin", "z4-diagonal", "--kind", "cubic", "--observable", "1e-999999999,0,0,0"],
            ["--builtin", "torus-sqrt23", "--kind", "cubic", "--trig", "1:0.5:0", "--start", "1e999999999"],
        ):
            code, out, err = run(capsys, "average", *argv, "--schedule", "4")
            assert code == 1 and out == "", argv
            assert err.count("\n") == 1 and err.startswith("error: not a p/q rational: '1e"), argv
            assert f"decimal exponent above {sys.int_info.default_max_str_digits} in size" in err, argv

    def test_torus_average_with_reference(self, capsys):
        code, out, _ = run(
            capsys,
            "average",
            "--builtin", "torus-sqrt23",
            "--kind", "cubic",
            "--trig", "1:0.5:0",
            "--start", "1/3",
            "--schedule", "16,64",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,value,reference,abs_error"
        for line in lines[1:]:
            n, value, reference, abs_error = line.split(",")
            assert reference != ""
            assert abs(float(value) - float(reference)) == pytest.approx(float(abs_error))

    def test_trig_validation(self, capsys):
        base = ["average", "--builtin", "torus-sqrt23", "--kind", "cubic", "--schedule", "4"]
        code, _, err = run(capsys, *base)
        assert code == 1 and "at least one --trig" in err
        code, _, err = run(capsys, *base, "--trig", "1:0.5")
        assert code == 1 and "trig term must be n:re:im" in err
        code, _, err = run(capsys, *base, "--trig=-1:0.5:0")
        assert code == 1 and "n >= 0" in err
        code, _, err = run(capsys, *base, "--trig", "0:0.5:1")
        assert code == 1 and "constant term must be real" in err

    def test_trig_rejects_non_finite_coefficients(self, capsys):
        base = ["average", "--builtin", "torus-sqrt23", "--kind", "birkhoff_1d", "--schedule", "4"]
        for term in ("1:nan:0", "0:inf:0", "2:0:-inf"):
            code, out, err = run(capsys, *base, "--trig", term)
            assert code == 1 and out == "", term
            assert err.count("\n") == 1 and err.startswith("error: ") and "not finite" in err, term

    def test_trig_rejects_coefficients_whose_products_overflow(self, capsys):
        for kind, term in (("fourfold", "1:1e100:0"), ("cubic", "1:1e200:0")):
            code, out, err = run(capsys, "average", "--builtin", "torus-sqrt23", "--kind", kind,
                                 "--trig", term, "--schedule", "4")
            assert code == 1 and out == "", kind
            assert err.count("\n") == 1 and err.startswith("error: ") and "overflows" in err, kind

    def test_trig_rejects_coefficients_whose_sup_bound_overflows(self, capsys):
        # 1e308 + 1e308 is past float range before any product is taken
        code, out, err = run(capsys, "average", "--builtin", "torus-sqrt23", "--kind", "cubic",
                             "--trig=1:1e308:0", "--schedule", "1,2")
        assert code == 1 and out == ""
        assert err == "error: observables too large: twice the product of their sup bounds overflows a float\n"

    def test_cubic_report_at_a_frequency_past_float_range_is_flat(self, capsys):
        # 10**320 is a multiple of the approximants' denominator 2**128: every
        # window and the limit are f(1/3)**3 = (-1/2)**3, with no error
        trig = f"--trig={10**320}:0.5:0"
        code, out, err = run(capsys, "average", "--builtin", "torus-sqrt23", "--kind", "cubic",
                             trig, trig, trig, "--schedule", "1,2", "--start", "1/3")
        assert code == 0 and err == "" and len(out.splitlines()) == 3
        for line in out.splitlines()[1:]:
            _, value, reference, abs_error = line.split(",")
            assert value == reference and abs_error == "0.0"
            assert abs(float(reference) + 0.125) <= 2.0**-48
        code, out, err = run(capsys, "average", "--builtin", "torus-sqrt23", "--kind", "birkhoff_1d",
                             trig, "--schedule", "1,2", "--start", "1/3")
        assert code == 0 and err == ""

    def test_cubic_report_at_a_phase_past_float_range_is_flat(self, capsys):
        # a float frequency n = 2**1023 - 2**970 whose phase 2 pi n x is not a
        # float; n is a multiple of 2**128 and n = 1 mod 3, so f = 1 + cos(2 pi n t)
        # is 1/2 at 1/3 and 2 at 0, and the report is flat at f(x)**3
        trig = f"--trig=0:1:0;{int(sys.float_info.max) // 2}:0.5:0"
        for start, expected in (("1/3", 0.125), ("0", 8.0)):
            code, out, err = run(capsys, "average", "--builtin", "torus-sqrt23", "--kind", "cubic",
                                 trig, trig, trig, "--schedule", "1,2", "--start", start)
            assert code == 0 and err == "" and len(out.splitlines()) == 3, start
            for line in out.splitlines()[1:]:
                _, value, reference, abs_error = line.split(",")
                assert value == reference and abs_error == "0.0", start
                assert abs(float(reference) - expected) <= 2.0**-48 * 8, start

    def test_finite_start_outside_the_system(self, capsys):
        for kind in ("birkhoff_1d", "birkhoff_2d"):
            for start in ("9", "-1"):
                code, out, err = run(capsys, "average", "--builtin", "z4-diagonal", "--kind", kind,
                                     "--observable", "1,0,0,0", "--start", start, "--schedule", "4")
                assert code == 1 and out == "", (kind, start)
                assert err == f"error: start point {start} outside 0..3\n", (kind, start)

    def test_mixing_observable_styles(self, capsys):
        code, _, err = run(
            capsys,
            "average",
            "--builtin", "torus-sqrt23",
            "--kind", "cubic",
            "--trig", "1:0.5:0",
            "--observable", "1,0",
            "--schedule", "4",
        )
        assert code == 1
        assert "--observable is for finite systems" in err
        code, _, err = run(
            capsys,
            "average",
            "--builtin", "z4-diagonal",
            "--kind", "cubic",
            "--observable", "1,0,-1,0",
            "--trig", "1:0.5:0",
            "--schedule", "4",
        )
        assert code == 1
        assert "--trig is for the torus" in err

    def test_usage_errors_map_to_one(self, capsys):
        # argparse usage problems must not leak exit code 2
        code, _, err = run(capsys, "average", "--builtin", "z4-diagonal", "--schedule", "4")
        assert code == 1
        code, _, err = run(capsys, "average", "--builtin", "z4-diagonal", "--kind", "sextic",
                           "--observable", "1,0,-1,0", "--schedule", "4")
        assert code == 1
        code, out, err = run(capsys, "average", "--builtin", "z4-diagonal", "--kind", "cubic",
                             "--observable", "-1,1,1,1", "--schedule", "4", "--bogus")
        assert code == 1 and out == ""
        assert err == "error: unrecognized arguments: --bogus (see ergocubes --help)\n"

    def test_signed_values_as_separate_arguments(self, capsys):
        # a value starting with '-' after --observable/--trig/--start reads
        # exactly as the '=' form
        base = ["average", "--builtin", "grid-2x3", "--kind", "cubic", "--schedule", "4"]
        ones = ["--observable=1,1,1,1,1,1", "--observable=1,1,1,1,1,1"]
        joined = run(capsys, *base, "--observable=-1/2,0,0,0,0,0", *ones)
        separate = run(capsys, *base, "--observable", "-1/2,0,0,0,0,0", *ones)
        assert separate == joined == (0, "N,value,reference,abs_error\n4,-1/8,,\n", "")
        torus = ["average", "--builtin", "torus-sqrt23", "--kind", "birkhoff_1d", "--schedule", "4,16"]
        joined = run(capsys, *torus, "--trig", "1:0.5:0", "--start=-1/3")
        assert joined[0] == 0 and joined[1].startswith("N,value,reference,abs_error\n4,")
        assert run(capsys, *torus, "--trig", "1:0.5:0", "--start", "-1/3") == joined
        for term, message in (("-0.5:0:0", "bad trig term '-0.5:0:0'"), ("-1:0.5:0", "n >= 0")):
            code, out, err = run(capsys, *torus, "--trig", term)
            assert (code, out, err) == run(capsys, *torus, f"--trig={term}")
            assert code == 1 and out == "" and err.count("\n") == 1 and message in err, term

    def test_out_file_matches_stdout_and_reruns_identically(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        argv = [
            "average",
            "--builtin", "z4-diagonal",
            "--kind", "fourfold",
            "--observable", "1,0,-1,0",
            "--schedule", "2,4,8",
        ]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code, silent, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and silent == ""
        first = target.read_bytes()
        assert first.decode() == out
        code, _, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0
        assert target.read_bytes() == first

    def test_out_file_mode_is_as_open_gives_it(self, capsys, tmp_path):
        # a new file gets 0666 less the umask; an overwritten one keeps its mode
        target = tmp_path / "report.csv"
        argv = ["average", "--builtin", "z4-diagonal", "--kind", "birkhoff_1d", "--observable", "1,0,-1,0", "--schedule", "4"]
        umask = os.umask(0o027)
        try:
            assert run(capsys, *argv, "--out", str(target))[0] == 0
            assert stat.S_IMODE(target.stat().st_mode) == 0o640
            for mode in (0o604, 0o600):
                target.chmod(mode)
                os.umask(0o022)
                assert run(capsys, *argv, "--out", str(target))[0] == 0
                assert stat.S_IMODE(target.stat().st_mode) == mode
        finally:
            os.umask(umask)
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_block_size_flag_is_gone(self, capsys):
        code, out, err = run(
            capsys,
            "average",
            "--builtin", "torus-sqrt23",
            "--kind", "cubic",
            "--trig", "1:0.5:0",
            "--schedule", "4",
            "--block-size", "4",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: unrecognized arguments: --block-size 4")


class TestExtend:
    def test_z4_extension_report(self, capsys):
        code, out, err = run(capsys, "extend", "--builtin", "z4-diagonal")
        assert code == 0 and err == ""
        assert "base points: 4" in out
        assert "extension points: 16" in out
        assert "component mass: 1/4" in out
        assert "selected=yes" in out
        assert "[not evaluated]" in out
        assert "extension magic: yes" in out
        assert "extension ergodic: yes" in out
        assert "extension free: yes" in out

    def test_extension_file_round_trip(self, capsys, tmp_path):
        target = tmp_path / "ext.json"
        code, _, _ = run(capsys, "extend", "--builtin", "z4-diagonal", "--out", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert len(doc["weights"]) == 16
        assert doc["factor"] and doc["base"]
        # the written file is itself a loadable system despite the extra keys
        code, out, _ = run(capsys, "analyze", "--system", str(target))
        assert code == 0
        assert "points: 16" in out
        assert "magic: yes" in out
        code, out, _ = run(
            capsys,
            "average",
            "--system", str(target),
            "--kind", "windowed_sn",
            "--observable", ",".join(["1", "-1"] * 8),
            "--schedule", "4,8",
        )
        assert code == 0

    def test_rejected_fiber_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(joinings, "is_magic", lambda sys: MagicReport(False, None, "stub", 0, 0))
        target = tmp_path / "ext.json"
        code, out, err = run(capsys, "extend", "--builtin", "z4-diagonal", "--out", str(target))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("extension failed: ")
        assert "not magic" in err
        assert not target.exists()

    def test_rejects_torus(self, capsys):
        code, _, err = run(capsys, "extend", "--builtin", "torus-sqrt23")
        assert code == 1
        assert "extend works on finite systems" in err

    def test_rejects_non_ergodic_base(self, capsys, tmp_path):
        halves = translation_system(2, 1, (0, 0), (0, 0))
        path = write_system(tmp_path / "idle.json", halves)
        code, _, err = run(capsys, "extend", "--system", path)
        assert code == 1
        assert "ergodic" in err


class TestCube:
    def test_rejects_torus(self, capsys):
        assert run(capsys, "cube", "--builtin", "torus-sqrt23") == (1, "", "error: cube structure reports work on finite systems\n")

    def test_structure_report(self, capsys):
        code, out, _ = run(capsys, "cube", "--builtin", "grid-2x3")
        assert code == 0
        assert "quadruples: 108" in out
        assert "transitive: yes" in out
        assert "quadruple measure supported on cube space: yes" in out
        assert "pair space (S): 36" in out

    def test_empirical_schedule(self, capsys):
        code, out, _ = run(
            capsys, "cube", "--builtin", "z4-diagonal", "--schedule", "1,4,8"
        )
        assert code == 0
        assert "empirical deviation from uniform (worst start):" in out
        assert "N=4: 0/1" in out
        assert "N=8: 0/1" in out

    def test_empty_schedule_is_refused(self, capsys):
        code, out, err = run(capsys, "cube", "--builtin", "grid-2x3", "--schedule", "")
        assert (code, out) == (1, "")
        assert err.startswith("error: bad schedule '': ") and err.count("\n") == 1

    def test_identification_rejects_a_schedule(self, capsys, tmp_path):
        first = write_system(tmp_path / "s.json", translation_system(2, 1, (1, 0), (0, 0)))
        second = write_system(tmp_path / "t.json", translation_system(3, 1, (0, 0), (1, 0)))
        base = ["cube", "--system", first, "--identify-with", second]
        for schedule in ("1,4", ""):
            code, out, err = run(capsys, *base, "--schedule", schedule)
            assert (code, out, err) == (1, "", "error: --schedule does not apply to --identify-with\n")

    def test_schedule_needs_a_transitive_cube_space(self, capsys, tmp_path, monkeypatch):
        # two 2-cycles under S, T the identity: two components, so two orbits
        # of quadruples; neither report may list the cube space
        def unlisted(system):
            raise AssertionError("the cube space was listed")

        monkeypatch.setattr(cubes, "cube_space", unlisted)
        path = write_system(tmp_path / "two.json", FiniteMPS([Fraction(1, 4)] * 4, [1, 0, 3, 2], [0, 1, 2, 3]))
        code, out, _ = run(capsys, "cube", "--system", path)
        assert code == 0
        assert "quadruples: 8\ntransform orbits: 2\ntransitive: no\n" in out
        code, out, err = run(capsys, "cube", "--system", path, "--schedule", "1,4")
        assert (code, out) == (1, "")
        assert err == "error: empirical comparison against the uniform measure needs a transitive cube space\n"

    def test_pair_space_sizes_match_the_listed_pair_spaces(self, capsys, tmp_path):
        # every count line against the listed route: the cube space and its
        # orbits, supp mu_{S,T} as a set, and the two pair spaces
        systems = lattices(9) + lattice_unions(6) + (product_grid(6, 6),)
        transitive = 0
        for k, system in enumerate(systems):
            space = cube_space(system)
            orbits = len(space.orbits())
            support = host_measure(system).quadruple_support() == set(space.points)
            transitive += orbits == 1
            expected = (
                f"quadruples: {space.size}\n"
                f"transform orbits: {orbits}\n"
                f"transitive: {'yes' if orbits == 1 else 'no'}\n"
                f"pair space (S): {two_sided_cube(system, S_GEN).size}\n"
                f"pair space (T): {two_sided_cube(system, T_GEN).size}\n"
                f"quadruple measure supported on cube space: {'yes' if support else 'no'}\n"
            )
            code, out, err = run(capsys, "cube", "--system", write_system(tmp_path / f"{k}.json", system))
            assert (code, out, err) == (0 if support else 2, expected, "")
        assert (len(systems), transitive) == (296, 70)

    def test_reports_and_measurability_build_no_host_measure(self, capsys, tmp_path, monkeypatch):
        def unbuilt(system):
            raise AssertionError("a host measure was built")

        monkeypatch.setattr(joinings, "_build_host_measure", unbuilt)
        for k, system in enumerate(lattices(12) + (product_grid(40, 40),)):
            measurability_check(system)
            path = write_system(tmp_path / f"{k}.json", system)
            code, out, err = run(capsys, "analyze", "--system", path)
            assert (code, err) == (0, "") and f"points: {system.n}\n" in out
            code, out, err = run(capsys, "cube", "--system", path)
            assert (code, err) == (0, "")
            transitive = "transitive: yes" in out
            code, out, err = run(capsys, "cube", "--system", path, "--schedule", "1,3")
            if transitive:
                assert (code, err) == (0, "") and "empirical deviation from uniform (worst start):" in out
            else:
                assert (code, out) == (1, "")

    def test_report_memory_follows_the_pair_support(self, capsys, tmp_path):
        # product_grid(40, 40): 64,000 pairs in supp mu_S but 2,560,000
        # quadruples, which a listed cube space would hold at once
        path = write_system(tmp_path / "grid.json", product_grid(40, 40))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "cube", "--system", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert out.startswith("quadruples: 2560000\ntransform orbits: 1\n")
        assert peak < 16 * 2**20

    def test_schedule_memory_follows_the_orbit_grid(self, capsys, tmp_path):
        # product_grid(40, 40) --schedule: every box hit is distinct for
        # N <= 40, so the deviation is 1 - N^4 / 2,560,000
        path = write_system(tmp_path / "grid.json", product_grid(40, 40))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "cube", "--system", path, "--schedule", "3,7,16")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert out.endswith(
            "empirical deviation from uniform (worst start):\n"
            "  N=3: 2559919/2560000 (~0.999968)\n"
            "  N=7: 2557599/2560000 (~0.999062)\n"
            "  N=16: 609/625 (~0.974400)\n"
        )
        assert peak < 16 * 2**20

    def test_identification(self, capsys, tmp_path):
        first = write_system(tmp_path / "s.json", translation_system(5, 1, (1, 0), (0, 0)))
        second = write_system(tmp_path / "t.json", translation_system(3, 1, (0, 0), (1, 0)))
        code, out, _ = run(capsys, "cube", "--system", first, "--identify-with", second)
        assert code == 0
        assert "quadruples: 225" in out
        assert "pair spaces: 25 x 9" in out
        assert "identified: yes" in out

    def test_identification_requires_one_sided_factors(self, capsys, tmp_path):
        second = write_system(tmp_path / "t.json", translation_system(3, 1, (0, 0), (1, 0)))
        code, _, err = run(capsys, "cube", "--builtin", "z4-diagonal", "--identify-with", second)
        assert code == 1
        assert "first factor must have T = identity" in err


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "core", "--trials", "3")
        assert code == 0
        assert "core" in out
        assert "total failures: 0" in out

    def test_multiple_suites_to_file(self, capsys, tmp_path):
        target = tmp_path / "verify.txt"
        code, _, _ = run(
            capsys, "verify", "--suite", "finite", "--suite", "joinings",
            "--trials", "3", "--seed", "7", "--out", str(target),
        )
        assert code == 0
        text = target.read_text()
        assert "finite" in text and "joinings" in text
        assert "total failures: 0" in text

    def test_negative_trials(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "core", "--trials", "-1")
        assert (code, out, err) == (1, "", "error: trials must be nonnegative, got -1\n")

    def test_unknown_suite_is_usage_error(self, capsys):
        known = "all, averaging, bounds, core, cubes, decompose, extension, finite, joinings, products, torus"
        line = f"error: unknown suite: 'nonesuch' (choose from {known})\n"
        for suites in (["nonesuch"], ["core", "nonesuch"], ["all", "nonesuch"]):
            argv = [arg for suite in suites for arg in ("--suite", suite)]
            assert run(capsys, "verify", *argv, "--trials", "1") == (1, "", line)

    def test_every_suite_by_default(self, capsys):
        # no --suite runs all ten; at seed 1 the extension suite's one
        # decision is a small one
        code, out, err = run(capsys, "verify", "--trials", "1", "--seed", "1")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 11 and [line.split()[1] for line in lines[:10]] == ["ok"] * 10
        assert lines[10] == "total failures: 0"


class TestTopLevel:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1

    @pytest.mark.parametrize("target", ["DIR", "MISSING/r.txt"])
    def test_an_unwritable_out_is_an_io_error(self, capsys, tmp_path, target):
        # an existing directory fails at the rename, after the temporary file
        # is written; a missing directory fails before it is made
        (tmp_path / "DIR").mkdir()
        code, out, err = run(capsys, "analyze", "--builtin", "z4-diagonal", "--out", str(tmp_path / target))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("i/o error: ")
        assert not list(tmp_path.rglob(".tmp-*.part"))

    def test_the_parser_raises_usage_errors(self):
        # argparse calls `error` on a usage problem and would exit 2; the
        # override raises instead, so `main` reports it and exits 1
        with pytest.raises(cli.CliError, match=r"^bad flag \(see ergocubes --help\)$"):
            cli.build_parser().error("bad flag")

    def test_one_parser_serves_every_call(self, capsys):
        # the same bytes as with a parser built afresh for each call, and no
        # --observable carried over from one call into the next
        grid = ["--builtin", "grid-2x3", "--schedule", "1,3"]
        argvs = [
            ["average", *grid, "--kind", "cubic", "--observable", "1,0,-1/2,1,0,2", "--observable", "-1,1,0,0,1/3,1"],
            ["analyze", "--builtin", "grid-2x3"],
            ["average", *grid, "--kind", "windowed_sn", "--observable", "1,0,-1/2,1,0,2"],
        ]
        shared = [run(capsys, *argv) for argv in argvs]
        assert cli.build_parser() is cli.build_parser()
        assert cli.build_parser().parse_args(["average", *grid, "--kind", "cubic"]).observable == []
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [1, 0, 0]
        assert shared[0][2] == "error: kind cubic needs 3 observables, got 2\n"
