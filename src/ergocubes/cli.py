"""Command-line front end.

Subcommands:
  analyze   structural report for a system (orders, transitivity, freeness,
            the magic property, invariant-algebra pairing, support sizes)
  average   window averages over a schedule, CSV or text, with exact or
            analytic references where they exist
  extend    build the magic extension of an ergodic system and write it as a
            loadable system file
  cube      quadruple/pair space structure, empirical box averages, and the
            product identification check
  verify    seeded property sweeps

Exit codes: 0 success; 1 configuration or I/O problem; 2 a checked property
actually failed (verification findings, identification failure, tolerance
breach, or an extension that could not be built).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys as _sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

# `averaging`, `cubes`, `torus` and `verify` are imported where a command
# runs them, so a process loads only the layers its command needs.
from .core import AVERAGE_KINDS, Observable, format_fraction, parse_rational
from .finite import (
    FiniteMPS,
    SystemFormatError,
    diagonal_grid,
    is_ergodic,
    is_free,
    partition_s,
    partition_st,
    partition_t,
    product_grid,
    system_from_dict,
    system_to_dict,
    z4_diagonal,
)
from .joinings import ExtensionConstructionError, invariant_w, magic_extension

if TYPE_CHECKING:
    from .torus import TorusSystem, TrigPoly

FINITE_BUILTINS = {
    "z4-diagonal": z4_diagonal,
    "product-2x3": product_grid,
    "grid-2x3": diagonal_grid,
}
# by the name of their constructor in `torus`, imported only when one is asked for
TORUS_BUILTINS = {
    "torus-sqrt23": "sqrt23_system",
}


class CliError(Exception):
    """Configuration or I/O problem; maps to exit code 1."""


# Flags whose values may start with '-' ("-1/2,0", "-0.5:0:0", "-1/3").
_SIGNED_VALUE_FLAGS = ("--observable", "--trig", "--start")


def _attach_signed_values(argv: Sequence[str]) -> List[str]:
    """Write `--observable -1/2,0` as `--observable=-1/2,0`.

    argparse takes a separate value that starts with '-' for an option unless
    it is a plain number.  No option here is spelled with one dash except
    -h, so a one-dash word after these flags is their value."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_VALUE_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this interface
    # reserves for genuine property violations; remap to 1, as one line.
    def error(self, message):
        raise CliError(f"{message} (see {self.prog} --help)")


def _atomic_write(path: str, text: str):
    # Created 0666 so the umask applies as it does for open(path, "w"); an
    # existing target keeps its own mode.
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            try:
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: Optional[str]):
    if out:
        _atomic_write(out, text)
    else:
        _sys.stdout.write(text)
        if not text.endswith("\n"):
            _sys.stdout.write("\n")


def _parse_fraction(text: str) -> Fraction:
    try:
        return parse_rational(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not a p/q rational: {text!r} ({exc})")


def _parse_observable(text: str, n: int) -> Observable:
    values = tuple(_parse_fraction(part) for part in text.split(","))
    if len(values) != n:
        raise CliError(f"observable has {len(values)} entries, system has {n} points")
    return Observable(values)


def _parse_trig(text: str) -> TrigPoly:
    from .torus import TrigPoly

    coeffs = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise CliError(f"trig term must be n:re:im, got {chunk!r}")
        try:
            n = int(parts[0])
            re, im = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise CliError(f"bad trig term {chunk!r}: {exc}")
        if n < 0:
            raise CliError(f"trig frequencies are given for n >= 0 (negatives are implied): {chunk!r}")
        if n == 0 and im != 0.0:
            raise CliError("the constant term must be real")
        coeffs[n] = coeffs.get(n, 0j) + complex(re, im)
        if n:
            coeffs[-n] = coeffs.get(-n, 0j) + complex(re, -im)
    if not coeffs:
        raise CliError("empty trigonometric polynomial")
    try:
        return TrigPoly(coeffs)
    except ValueError as exc:
        raise CliError(f"bad trig observable {text!r}: {exc}")


# A report divides by up to N**4 and prints every value in decimal.  With
# windows of at most 2**k, k a quarter of Python's int-string limit,
# N**4 <= 2**(4k) has at most that many bits, so under a third of that many
# digits, and the printed values stay far inside the limit.
_MAX_POW2_EXPONENT = _sys.int_info.default_max_str_digits // 4


def _parse_schedule(text: str) -> Tuple[int, ...]:
    text = text.strip()
    if text.startswith("pow2:"):
        span = text[len("pow2:"):]
        if ".." not in span:
            raise CliError(f"pow2 schedule must look like pow2:4..10, got {text!r}")
        lo_s, hi_s = span.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise CliError(f"bad schedule bounds in {text!r}: {exc}")
        if lo < 0 or hi < lo:
            raise CliError(f"bad schedule range in {text!r}")
        if hi > _MAX_POW2_EXPONENT:
            raise CliError(f"pow2 exponents above {_MAX_POW2_EXPONENT} are not supported, got {text!r}")
        return tuple(2**k for k in range(lo, hi + 1))
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad schedule {text!r}: {exc}")
    from .averaging import check_schedule

    check_schedule(values)
    if values[-1] > 2**_MAX_POW2_EXPONENT:
        raise CliError(f"schedule windows above 2**{_MAX_POW2_EXPONENT} are not supported")
    return values


def _load_system(args) -> Union[FiniteMPS, TorusSystem]:
    if getattr(args, "builtin", None) and getattr(args, "system", None):
        raise CliError("give either --builtin or --system, not both")
    if getattr(args, "builtin", None):
        name = args.builtin
        if name in FINITE_BUILTINS:
            return FINITE_BUILTINS[name]()
        if name in TORUS_BUILTINS:
            from . import torus

            return getattr(torus, TORUS_BUILTINS[name])()
        known = ", ".join(sorted(FINITE_BUILTINS) + sorted(TORUS_BUILTINS))
        raise CliError(f"unknown builtin {name!r} (known: {known})")
    if getattr(args, "system", None):
        return _load_system_file(args.system)
    raise CliError("a system is required: --builtin NAME or --system FILE")


def _load_system_file(path: str) -> FiniteMPS:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # malformed or too deeply nested JSON, or undecodable bytes
        raise CliError(f"{path} is not valid JSON: {exc}")
    try:
        return system_from_dict(doc)
    except SystemFormatError as exc:
        raise CliError(f"{path}: {exc}")


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _support_counts(system: FiniteMPS) -> Tuple[int, int, int]:
    """Sizes of supp mu_S, supp mu_T and the cube space, sum_x |S-orbit(x)| |T-orbit(x)|."""
    ps, pt = partition_s(system), partition_t(system)
    s_len, t_len = ([len(block) for block in p.blocks()] for p in (ps, pt))
    quadruples = sum(s_len[s] * t_len[t] for s, t in zip(ps.block_of, pt.block_of))
    return sum(k * k for k in s_len), sum(k * k for k in t_len), quadruples


# -- analyze -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    system = _load_system(args)
    lines: List[str] = []
    if not isinstance(system, FiniteMPS):
        lines.append("kind: torus rotations")
        lines.append(f"alpha: {float(system.alpha):.12f}")
        lines.append(f"beta: {float(system.beta):.12f}")
        lines.append(f"generic pair declared: {_yesno(system.generic)}")
    else:
        free = is_free(system)
        w_blocks = invariant_w(system).num_blocks  # the seminorm is a norm (`joinings`): magic = measurable = W discrete
        lines.append(f"points: {system.n}")
        lines.append(f"uniform weights: {_yesno(len(set(system.weights)) == 1)}")
        lines.append(f"order of S: {system.order_s()}   order of T: {system.order_t()}")
        lines.append(f"ergodic: {_yesno(is_ergodic(system))}")
        lines.append(f"components: {partition_st(system).num_blocks}")
        if free.free:
            lines.append("free: yes")
        else:
            i, j = free.witness
            lines.append(f"free: no (witness: S^{i} T^{j} = identity)")
        lines.append("magic: yes" if w_blocks == system.n else "magic: no (mean-zero observable with positive seminorm)")
        lines.append(f"kernel dimension: 0   mean-zero dimension: {system.n - w_blocks}")
        lines.append(f"invariant pairing measurable: {_yesno(w_blocks == system.n)}")
        pairs, _, quadruples = _support_counts(system)
        lines += [f"pair support: {pairs}", f"quadruple support: {quadruples}", f"cube space: {quadruples}"]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- average -----------------------------------------------------------------


def cmd_average(args) -> int:
    if args.tolerance is not None and not 0 <= args.tolerance < math.inf:
        raise CliError(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    system = _load_system(args)
    schedule = _parse_schedule(args.schedule)
    kind = args.kind
    torus = not isinstance(system, FiniteMPS)
    if torus:
        if not args.trig:
            raise CliError("torus averages need at least one --trig observable")
        if args.observable:
            raise CliError("--observable is for finite systems; use --trig on the torus")
        obs = [_parse_trig(t) for t in args.trig]
        start = _parse_fraction(args.start) if args.start else Fraction(0)
    else:
        if not args.observable:
            raise CliError("finite averages need at least one --observable")
        if args.trig:
            raise CliError("--trig is for the torus; use --observable on finite systems")
        obs = [_parse_observable(o, system.n) for o in args.observable]
        try:
            start = int(args.start) if args.start else 0
        except ValueError:
            raise CliError(f"finite start must be a point index, got {args.start!r}")
    if len(obs) == 1:
        obs *= AVERAGE_KINDS[kind]
    if torus:
        from .torus import torus_report as report_of
    else:
        from .averaging import run_average as report_of
    report = report_of(system, kind, obs, start, schedule)
    if args.tolerance is not None and any(row.reference is None for row in report.rows):
        raise CliError(f"--tolerance needs a reference value, and kind {kind} has none here")
    _emit(report.to_csv() if args.format == "csv" else report.to_text(), args.out)
    if args.tolerance is not None:
        worst = max(abs(row.abs_error) for row in report.rows)
        if worst > args.tolerance:
            _sys.stderr.write(f"tolerance breach: worst error {float(worst)} > {args.tolerance}\n")
            return 2
    return 0


# -- extend ------------------------------------------------------------------


def cmd_extend(args) -> int:
    system = _load_system(args)
    if not isinstance(system, FiniteMPS):
        raise CliError("extend works on finite systems")
    try:
        ext = magic_extension(system)
    except ExtensionConstructionError as exc:
        _sys.stderr.write(f"extension failed: {exc}\n")
        return 2
    lines = [
        f"base points: {system.n}",
        f"extension points: {ext.system.n}",
        f"component mass: {format_fraction(ext.mass)}",
        "components (size, mass, magic, free, selected):",
    ]
    for comp in ext.components:
        flags = []
        for label, value in (("magic", comp.magic), ("free", comp.free)):
            flags.append(f"{label}={'-' if value is None else _yesno(value)}")
        note = f" [{comp.rejection}]" if comp.rejection else ""
        lines.append(
            f"  size={comp.size} mass={format_fraction(comp.mass)} {' '.join(flags)} "
            f"selected={_yesno(comp.selected)}{note}"
        )
    # magic_extension decided both verdicts on this very component
    chosen = next(comp for comp in ext.components if comp.selected)
    lines.append(f"extension magic: {_yesno(chosen.magic)}")
    lines.append(f"extension ergodic: {_yesno(is_ergodic(ext.system))}")
    lines.append(f"extension free: {_yesno(chosen.free)}")
    if args.out:
        doc = system_to_dict(ext.system)
        doc["factor"] = list(ext.factor)
        doc["base"] = system_to_dict(system)
        _atomic_write(args.out, json.dumps(doc, indent=2) + "\n")
        lines.append(f"wrote extension system to {args.out}")
    _sys.stdout.write("\n".join(lines) + "\n")
    return 0


# -- cube --------------------------------------------------------------------


def cmd_cube(args) -> int:
    if args.identify_with and args.schedule is not None:
        raise CliError("--schedule does not apply to --identify-with")
    system = _load_system(args)
    if not isinstance(system, FiniteMPS):
        raise CliError("cube structure reports work on finite systems")
    from .cubes import product_cube_identification, uniform_cube_deviation

    if args.identify_with:
        report = product_cube_identification(system, _load_system_file(args.identify_with))
        lines = [
            f"quadruples: {report.cube_size}",
            f"pair spaces: {report.first_pair_size} x {report.second_pair_size}",
            f"bijection: {_yesno(report.bijective)}",
            f"action conjugated: {_yesno(report.intertwines)}",
            f"measure identified: {_yesno(report.measure_matches)}",
            f"identified: {_yesno(report.identified)}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
        return 0 if report.identified else 2
    # Counts from the orbit data.  The cube over x is (x, S^i x, T^j x, S^i T^j x), i < a_x,
    # j < b_x; side moves shift (i, j) and diagonals carry it onto the cubes over Sx and Tx,
    # so the transform orbits are the joint orbits.
    s_pairs, t_pairs, quadruples = _support_counts(system)
    orbit_count = partition_st(system).num_blocks
    lines = [
        f"quadruples: {quadruples}",
        f"transform orbits: {orbit_count}",
        f"transitive: {_yesno(orbit_count == 1)}",
        f"pair space (S): {s_pairs}",
        f"pair space (T): {t_pairs}",
    ]
    # supp mu_{S,T} is the cube space on every system, a theorem (see the joinings module).
    lines.append("quadruple measure supported on cube space: yes")
    if args.schedule is not None:
        schedule = _parse_schedule(args.schedule)
        if orbit_count != 1:
            raise CliError("empirical comparison against the uniform measure needs a transitive cube space")
        lines.append("empirical deviation from uniform (worst start):")
        for N in schedule:
            value = uniform_cube_deviation(system, N)
            lines.append(f"  N={N}: {format_fraction(value)} (~{float(value):.6f})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .verify import run_suites

    results = run_suites(args.suite or ["all"], seed=args.seed, trials=args.trials)
    lines = []
    failures = 0
    for result in results:
        lines.append(result.line())
        failures += result.failures
        for finding in result.findings[:10]:
            lines.append(f"    {finding}")
    lines.append(f"total failures: {failures}")
    _emit("\n".join(lines) + "\n", args.out)
    return 2 if failures else 0


# -- wiring ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; `main` looks handlers up by name."""
    parser = _Parser(prog="ergocubes", description="finite measure-preserving systems with two commuting maps")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--builtin", help="stock system: " + ", ".join(sorted(FINITE_BUILTINS) + sorted(TORUS_BUILTINS)))
        p.add_argument("--system", help="JSON system file")
        p.add_argument("--out", help="write the report to this file (atomically)")

    p = sub.add_parser("analyze", help="structural report")
    add_common(p)

    p = sub.add_parser("average", help="window averages over a schedule")
    add_common(p)
    p.add_argument("--kind", required=True, choices=sorted(AVERAGE_KINDS))
    p.add_argument("--observable", action="append", default=[],
                   help="comma-separated p/q values, one per point; repeatable")
    p.add_argument("--trig", action="append", default=[],
                   help="torus observable as n:re:im terms joined by ';' (n >= 0); repeatable")
    p.add_argument("--start", help="start point: index (finite) or p/q (torus); default 0")
    p.add_argument("--schedule", required=True, help="window sizes: '4,8,16' or 'pow2:4..10'")
    p.add_argument("--format", choices=("csv", "text"), default="csv")
    p.add_argument("--tolerance", type=float, default=None,
                   help="exit 2 if any |value - reference| exceeds this")

    p = sub.add_parser("extend", help="build the magic extension")
    add_common(p)

    p = sub.add_parser("cube", help="quadruple space structure and empirical averages")
    add_common(p)
    p.add_argument("--schedule", help="deviation of box-averaged quadruples from uniform at these window sizes")
    p.add_argument("--identify-with", metavar="FILE",
                   help="second factor file: check the product identification instead")

    p = sub.add_parser("verify", help="seeded property sweeps")
    p.add_argument("--suite", action="append", help="repeatable; default all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--out", help="write the report to this file (atomically)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(_sys.argv[1:] if argv is None else argv))
        return globals()[f"cmd_{args.command}"](args)
    except (CliError, ValueError) as exc:
        # ValueError covers the library's DimensionError, PreconditionError,
        # InvalidSystemError and SystemFormatError
        _sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        _sys.stderr.write(f"i/o error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
