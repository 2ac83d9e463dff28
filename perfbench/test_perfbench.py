"""Self-tests of the benchmark: seed discipline, oracles, host-speed rescaling
and the bare-checkout exit.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ergocubes import averaging, finite, torus  # noqa: E402
from ergocubes.core import Observable  # noqa: E402

# Counters fixed by the size classes alone, which the seed must not move.
SIZE_CLASS = ("linalg.exact_null_space.rows", "cubes.empirical.cells", "joinings.host_measure.quads")


def traced_counters(workload, seed, tmp_path):
    jobs = workloads.make_jobs(workload, seed, str(tmp_path / f"{workload}-{seed}"))
    _, outputs, metrics = run.traced_pass(jobs, spans.Tracer())
    assert run.check_outputs(jobs, [(None, outputs)]) == 0
    return {name: value for name, value in metrics.items() if spans.is_exact(name)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_discipline(workload, tmp_path):
    first = traced_counters(workload, 7, tmp_path)
    assert traced_counters(workload, 7, tmp_path / "again") == first
    other = traced_counters(workload, 8, tmp_path)
    assert {k: other[k] for k in SIZE_CLASS} == {k: first[k] for k in SIZE_CLASS}


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        workloads.make_jobs(workload, 3, str(tmp_path / "a"))
        workloads.make_jobs(workload, 3, str(tmp_path / "b"))
        for path in (tmp_path / "a").iterdir():
            assert path.read_text() == (tmp_path / "b" / path.name).read_text()


def test_finite_oracle_matches_literal_loops():
    rng = Random(0)
    for k in range(20):
        sys_ = finite.random_system(Random(k), max_order=3)
        fs = [[Fraction(rng.randint(-2, 2), 2) for _ in range(sys_.n)] for _ in range(4)]
        F = [Observable(f) for f in fs]
        x = rng.randrange(sys_.n)
        for N in (1, 2, 3, 5):
            assert oracle.finite_average("fourfold", sys_.S, sys_.T, fs, x, N) == averaging.fourfold_average_naive(sys_, *F, x, N)
            assert oracle.finite_average("windowed_sn", sys_.S, sys_.T, fs[:1], x, N) == averaging.windowed_sn_naive(sys_, F[0], x, N)


def test_torus_oracle_matches_literal_loops():
    system = torus.sqrt23_system()
    tor = oracle.TorusOracle(system.alpha, system.beta)
    polys = [workloads._trig(Random(k), k) for k in range(4)]
    x = Fraction(5, 97)
    for kind, need in averaging.AVERAGE_KINDS.items():
        trig = [torus.TrigPoly(p) for p in polys[:need]]
        for N in (1, 4, 9):
            want = torus.torus_average_naive(system, kind, trig, x, N)
            assert oracle.torus_close(tor.average(kind, polys[:need], x, N), want)


def test_rescale_removes_kernel_time_and_host_speed():
    sampler = hostspeed.Sampler()
    # A host at half the reference speed; the job held two kernel runs.
    sampler.seconds = [2 * hostspeed.REFERENCE_S] * 8
    assert sampler.rescale(1.0, 6, 8) == pytest.approx((1.0 - 4 * hostspeed.REFERENCE_S) / 2)


def test_sampler_samples_while_active_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 10 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert sampler.mark() > hostspeed.MIN_SAMPLES
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_exits_without_result_in_a_bare_checkout(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extend", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
