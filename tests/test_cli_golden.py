"""Report bytes pinned: `average` and `cube` stdout against a recording in
`golden_reports.json`.

The `average` runs and the first two `cube --schedule` runs were recorded
from the code before averages, the cube engine and the torus reports shared
one box-hit primitive and one schedule driver.  `cube --builtin product-2x3`
and `cube --builtin z4-diagonal` were recorded from the code before cube
spaces became plain records of points and index permutations.
`cube --builtin grid-2x3` and `cube --builtin product-2x3 --schedule 1,4,8`
were recorded from the code that still listed the whole cube space for every
`cube` report, before its count lines were read off the orbit data.  The
`torus-sqrt23` runs at `pow2:30..60` with start 5/7 were recorded from the
code that still reduced every torus phase as a `Fraction`; they pin the float
bits where N times a 128-bit rotation amount must be reduced exactly.  The
`cube --identify-with` runs were recorded from the code that still pushed the
listed quadruple measure forward to the factor pairs.  The `cube --system
z12-s1-t3.json` and `cube --builtin grid-2x3 ... 1099511627776` schedule
runs were recorded from the code that still listed the cube space and ran
the general empirical engine for `cube --schedule`.  That run and the
`z4-diagonal --schedule 1,4,8` run were recorded with a `--starts` option,
which changed no output; when it went, their keys lost only those words.  The `average --system
z12-s1-t3.json` runs (a = 12, b = 4, windows 1..30, 2^40 and 2^60 + 1, so
every residue pair of N is crossed) were recorded from the code that still
walked the orbit grid once per window for the cubic and Birkhoff kinds; the
`fourfold` and `windowed_sn` runs are their controls.  The recording is the
spec: it is never re-recorded to agree with a change.

One exception, made for accuracy: the `reference` and `abs_error` columns
of the two `torus-sqrt23 --kind cubic` runs (start 1/3 at `pow2:0..8`, start
5/7 at `pow2:30..60`) were re-recorded when the cubic limit stopped rounding
each phase 2 pi n x as a float and became the report's own frequency table
at N -> infinity, with every phase reduced exactly.  Against a 50-digit
evaluation of the limit, the reference's error fell from 3.8e-16 to 5.9e-17
(start 1/3) and from 3.6e-16 to 2.9e-17 (start 5/7); their `value` columns
are the recorded bytes.
"""

import json
from pathlib import Path

import pytest

from ergocubes.cli import main
from ergocubes.finite import system_to_dict, translation_system

MIXED = "--observable=1,-1/3,0,-1/2,5/7,-2"
TRIG = "--trig=0:0.5:0;1:0.25:-0.5;2:-0.75:0.25"
MIXED12 = "--observable=1,-1/3,0,-1/2,5/7,-2,3/4,-5/6,2/9,1,-1/11,7/5"
EVERY_RESIDUE = ",".join(str(n) for n in [*range(1, 31), 2**40, 2**60 + 1])
KINDS = ("cubic", "fourfold", "windowed_sn", "birkhoff_1d", "birkhoff_2d")

GOLDEN_ARGVS = [
    ["average", "--builtin", "grid-2x3", "--kind", kind, MIXED, "--start", "1", "--schedule", "pow2:0..8", "--format", fmt]
    for kind in KINDS
    for fmt in ("csv", "text")
]
GOLDEN_ARGVS += [
    ["average", "--builtin", "torus-sqrt23", "--kind", kind, TRIG, "--start", "1/3", "--schedule", "pow2:0..8"]
    for kind in KINDS
]
GOLDEN_ARGVS += [
    ["average", "--builtin", "torus-sqrt23", "--kind", kind, TRIG, "--start", "5/7", "--schedule", "pow2:30..60"]
    for kind in KINDS
]
GOLDEN_ARGVS += [
    ["average", "--system", "z12-s1-t3.json", "--kind", kind, MIXED12, "--start", "5", "--schedule", EVERY_RESIDUE]
    for kind in KINDS
]
GOLDEN_ARGVS += [
    ["cube", "--builtin", "grid-2x3", "--schedule", "1,4,8"],
    ["cube", "--builtin", "z4-diagonal", "--schedule", "1,4,8"],
    ["cube", "--builtin", "product-2x3"],
    ["cube", "--builtin", "z4-diagonal"],
    ["cube", "--builtin", "grid-2x3"],
    ["cube", "--builtin", "product-2x3", "--schedule", "1,4,8"],
    ["cube", "--system", "z5-s2.json", "--identify-with", "z3-t1.json"],
    ["cube", "--system", "z4-s1.json", "--identify-with", "z6-t5.json"],
    ["cube", "--system", "z12-s1-t3.json", "--schedule", "1,2,3,5,7,16,31,4096"],
    ["cube", "--builtin", "grid-2x3", "--schedule", "1,2,3,5,7,1099511627776"],
]
# The system files the `--system` runs read, written to the working directory.
FACTORS = {
    "z5-s2.json": translation_system(5, 1, (2, 0), (0, 0)),
    "z3-t1.json": translation_system(3, 1, (0, 0), (1, 0)),
    "z4-s1.json": translation_system(4, 1, (1, 0), (0, 0)),
    "z6-t5.json": translation_system(6, 1, (0, 0), (5, 0)),
    "z12-s1-t3.json": translation_system(12, 1, (1, 0), (3, 0)),
}

GOLDEN = json.loads((Path(__file__).with_name("golden_reports.json")).read_text())


def test_every_recorded_run_is_listed():
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in GOLDEN_ARGVS)


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=[" ".join(argv[1:]) for argv in GOLDEN_ARGVS])
def test_stdout_matches_the_recording(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, system in FACTORS.items():
        (tmp_path / name).write_text(json.dumps(system_to_dict(system)))
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == GOLDEN[" ".join(argv)]
