"""Derandomized fuzzing of the command line: malformed flags and system files,
and window sizes at and past what the reports can compute and print.

Whatever the arguments and the system document, `main` returns 0, 1 or 2,
raises nothing (an escaping exception is a traceback for a user), and an
exit-1 run writes exactly one `error: ` or `i/o error: ` line to stderr.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ergocubes.averaging import AVERAGE_KINDS
from ergocubes.cli import main
from ergocubes.finite import system_to_dict, translation_system

# Small valid systems, so that accepted inputs stay cheap to run.
VALID = [system_to_dict(translation_system(a, b, s, t))
         for a, b, s, t in ((2, 1, (1, 0), (0, 0)), (1, 3, (0, 0), (0, 1)), (4, 1, (1, 0), (1, 0)),
                            (2, 2, (1, 0), (0, 1)), (2, 2, (1, 1), (0, 1)))]

junk = st.sampled_from([None, True, -1, 0, 0.5, "x", "1/0", [], {}, [[1]]])
weight = st.one_of(st.sampled_from(["1/2", "1/3", "1/4", "1", "0", "-1/2", "x", "1/0", "", 1, 0.25]), junk)
index = st.one_of(st.integers(-1, 4), junk)


@st.composite
def documents(draw):
    """A system file's bytes: valid, mistyped, or not JSON at all."""
    kind = draw(st.sampled_from(["valid", "mutated", "random", "not-json"]))
    if kind == "not-json":
        return draw(st.sampled_from([b"{not json", b"\xff\xfe{\x00}\x00", b"", b"[" * 5000, b"3", b'"s"']))
    if kind == "random":
        n = draw(st.one_of(st.integers(-1, 4), junk))
        size = n if isinstance(n, int) and not isinstance(n, bool) and 0 <= n <= 4 else draw(st.integers(0, 3))
        doc = {"n": n,
               "weights": draw(st.lists(weight, min_size=size, max_size=size)),
               "S": draw(st.lists(index, min_size=size, max_size=size)),
               "T": draw(st.lists(index, min_size=size, max_size=size))}
    else:
        doc = dict(draw(st.sampled_from(VALID)))
    if kind == "mutated":
        field = draw(st.sampled_from(["n", "weights", "S", "T"]))
        action = draw(st.sampled_from(["drop", "junk", "reverse", "swap"]))
        if action == "drop":
            del doc[field]
        elif action == "junk":
            doc[field] = draw(junk)
        elif isinstance(doc[field], list):
            doc[field] = doc[field][::-1] if action == "reverse" else doc["S" if field == "T" else "T"]
    return json.dumps(doc).encode()


values = {
    "--observable": st.sampled_from(["1,0,-1,0", "1,-1", "1,0,0", "1/2,x", "1/0,1", "", "-1/2,0,0,0", "1,1,1,1,1,1"]),
    "--trig": st.sampled_from(["1:0.5:0", "1:0.5", "-1:1:0", "0:1:1", "1:nan:0", ";", "x:y:z", "1:1e200:0", "1:1e308:0",
                               f"{10**320}:0.5:0"]),
    "--start": st.sampled_from(["0", "1", "-1", "9", "x", "1/3", "1/0"]),
    "--schedule": st.sampled_from(["4", "1,2", "8,4", "0,4", "4,4", "pow2:1..3", "pow2:3..1", "pow2:x..2", "pow2:2",
                                   "a,b", "", "-1"]),
    "--kind": st.sampled_from(["cubic", "fourfold", "windowed_sn", "birkhoff_1d", "birkhoff_2d", "sextic"]),
    "--format": st.sampled_from(["csv", "text", "xml"]),
    "--tolerance": st.sampled_from(["0.1", "0", "nan", "inf", "-1", "x"]),
    "--builtin": st.sampled_from(["z4-diagonal", "grid-2x3", "torus-sqrt23", "nonesuch"]),
    "--suite": st.sampled_from(["core", "finite", "averaging", "nonesuch"]),
    "--trials": st.sampled_from(["0", "1", "-1", "x"]),
    "--seed": st.sampled_from(["0", "7", "x"]),
}
FLAGS = {
    "analyze": [],
    "average": ["--kind", "--observable", "--trig", "--start", "--schedule", "--format", "--tolerance"],
    "extend": [],
    "cube": ["--schedule"],
    "verify": ["--suite", "--trials", "--seed"],
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS) + ["transmogrify"]))
    argv = [command]
    if command == "verify":
        # verify runs every suite at 25 trials by default; keep it to one cheap trial
        argv += ["--suite", "core", "--trials", "1"]
    elif command == "average" and draw(st.booleans()):
        observable = draw(st.sampled_from(["--observable", "--trig"]))
        for flag in ("--kind", "--schedule", observable):
            argv += [flag, draw(values[flag])]
    if FLAGS.get(command):
        for flag in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=4)):
            argv += [flag, draw(values[flag])]
    files = {}
    source = "none" if command == "verify" else draw(st.sampled_from(["builtin", "file", "file", "both", "none"]))
    if source in ("builtin", "both"):
        argv += ["--builtin", draw(values["--builtin"])]
    if source in ("file", "both"):
        files["system"] = draw(documents())
        argv += ["--system", "system.json"]
    if command == "cube" and draw(st.booleans()):
        files["second"] = draw(documents())
        argv += ["--identify-with", "second.json"]
    return argv, files


# Window extremes: pow2 exponents up to 10**7, which must be refused before
# any power is built, and windows on both sides of 2**1024, past which a
# torus kernel would overflow a float.
extreme_schedules = st.one_of(
    st.integers(0, 10**7).map(lambda k: f"pow2:{k}..{k}"),
    st.integers(1020, 1100).map(lambda k: f"pow2:{k - 2}..{k}"),
    st.integers(1020, 1100).map(lambda k: f"{2**k - 1},{2**k}"),
)
OBSERVABLES = {
    "z4-diagonal": ["--observable", "1,0,-1,0"],
    "grid-2x3": ["--observable", "1,-1/2,0,1/3,-1,1/2"],
    "torus-sqrt23": ["--trig", "1:0.5:0;2:0:0.25"],
}


@st.composite
def extreme_windows(draw):
    schedule = draw(extreme_schedules)
    builtin = draw(st.sampled_from(sorted(OBSERVABLES)))
    if builtin != "torus-sqrt23" and draw(st.booleans()):
        return ["cube", "--builtin", builtin, "--schedule", schedule], {}
    kind = draw(st.sampled_from(["cubic", "fourfold", "windowed_sn", "birkhoff_1d", "birkhoff_2d"]))
    return ["average", "--builtin", builtin, "--kind", kind, "--schedule", schedule] + OBSERVABLES[builtin], {}


@st.composite
def extreme_observables(draw):
    """Every torus kind with one --trig term per observable it needs: the
    same term each time, so that products of coefficients at one frequency,
    like the cubic limit's c1(n) c2(n) c3(-n), are nonzero."""
    kind = draw(st.sampled_from(sorted(AVERAGE_KINDS)))
    term = draw(values["--trig"])
    argv = ["average", "--builtin", "torus-sqrt23", "--kind", kind, "--schedule", "1,2", "--start", "1/3"]
    return argv + [f"--trig={term}"] * AVERAGE_KINDS[kind], {}


@settings(derandomize=True, database=None, max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_input_gets_an_exit_code_and_at_most_one_error_line(invocation):
    check_exit(*invocation)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(extreme_windows())
def test_extreme_windows_get_an_exit_code_and_at_most_one_error_line(invocation):
    check_exit(*invocation)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(extreme_observables())
def test_extreme_observables_get_an_exit_code_and_at_most_one_error_line(invocation):
    check_exit(*invocation)


def check_exit(argv, files):
    with tempfile.TemporaryDirectory() as workdir:
        for name, data in files.items():
            with open(os.path.join(workdir, name + ".json"), "wb") as handle:
                handle.write(data)
        argv = [os.path.join(workdir, arg) if arg.endswith(".json") and arg[:-5] in files else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr, argv
    if code == 1:
        assert stderr.count("\n") == 1 and stderr.startswith(("error: ", "i/o error: ")), (argv, stderr)
