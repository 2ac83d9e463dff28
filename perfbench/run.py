"""ergocubes benchmark: one workload, one process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload extend|sweep|average --seed N \
        --seconds S --trace 0|1

The run generates the workload's inputs from --seed, then runs its job list
over and over, single-threaded, for about --seconds.  Every pass runs the
same jobs on freshly loaded inputs, so passes do equal work.  Outputs are
checked against independent references (oracle.py) and golden.json after
the timed passes.

--trace 0 prints the end-to-end metrics:
  setup_s      median of 7 fresh processes' time from start until the job
               list is ready (import ergocubes with numpy, write the inputs)
  wall_s       time of one pass over the whole job list: the sum over jobs
               of each job's median latency (the first pass is a warm-up)
  job_p50_s    median over jobs of each job's median latency
  peak_rss_mb  peak resident memory of this process after the timed passes
The times are given at the reference host speed: a fixed kernel runs from
a timer every 20 ms while the jobs run, and each job's time is rescaled
by the kernel's time around it (see hostspeed.py).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the median traced pass (see spans.py and README.md).

The result's `attempted` counts every job run and `failed` those with a
wrong exit code, a wrong output or an exception; `correct` is failed == 0.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: numpy must not spread the torus matrix products
# over cores that the measurement assumes idle.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7


def run_pass(jobs, sampler=None):
    """Run every job once; return (latencies, outputs).

    With an active hostspeed.Sampler the latencies are at the reference
    host speed.
    """
    latencies, outputs = [], []
    for job in jobs:
        first = sampler.mark() if sampler is not None else 0
        begin = time.perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # a failed job is counted, not fatal
            out = exc
        latencies.append(time.perf_counter() - begin)
        if sampler is not None:
            latencies[-1] = sampler.rescale(latencies[-1], first, sampler.mark())
        if job.after is not None and not isinstance(out, Exception):
            try:
                out = job.after(out)
            except OSError as exc:  # the run left no readable output file
                out = exc
        outputs.append(out)
    return latencies, outputs


def traced_pass(jobs, tracer):
    """One pass with the tracer installed; returns (latencies, outputs, metrics)."""
    tracer.reset()
    tracer.install()
    try:
        latencies, outputs = run_pass(jobs)
    finally:
        tracer.uninstall()
    return latencies, outputs, tracer.metrics()


def check_outputs(jobs, passes):
    """Count failed job runs; print the reason for each failing job to stderr."""
    golden = json.loads((HERE / "golden.json").read_text())
    failed = 0
    for k, job in enumerate(jobs):
        first = passes[0][1][k]
        problems = []
        if isinstance(first, Exception):
            problems.append(f"raised {type(first).__name__}: {first}")
        else:
            try:
                if job.invariant is not None and json.loads(json.dumps(job.invariant(first))) != golden.get(job.name):
                    problems.append("output differs from golden.json")
                if job.check is not None:
                    problems += job.check(first)
            except Exception as exc:  # malformed output: a failed job, not a crash
                problems.append(f"output could not be checked ({type(exc).__name__}: {exc})")
        if problems:
            print(f"FAIL {job.name}: " + "; ".join(problems), file=sys.stderr)
            failed += len(passes)
            continue
        for latencies, outputs in passes[1:]:
            if outputs[k] != first:
                print(f"FAIL {job.name}: output changed between passes", file=sys.stderr)
                failed += 1
    return failed


def measure_setup(workload, seed, workdir):
    """Median time of fresh processes from start until the jobs are ready,
    at the reference host speed as each probe sampled it."""
    samples = []
    for k in range(SETUP_PROBES):
        begin = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir / f"probe-{k}")],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - begin
            proc.stdout.read()
        if proc.returncode != 0 or not ready.startswith("ready "):
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        kernel_s, kernel_mean_s = (float(v) for v in ready.split()[1:])
        samples.append((elapsed - kernel_s) * hostspeed.REFERENCE_S / kernel_mean_s)
    return statistics.median(samples)


def timed_passes(jobs, seconds, tracer=None):
    """Passes until the next one would end after `seconds`.

    Without a tracer the latencies are at the reference host speed.  With
    a tracer, untraced and traced passes alternate, and the times are as
    measured.  Returns every pass, the untraced and traced
    pass times, and each traced pass's per-layer metrics.
    """
    passes, walls, traced_walls, traced_metrics = [], [], [], []
    begin = time.perf_counter()
    while True:
        # Every pass starts from the same collector state: what earlier
        # passes left (their outputs) is collected or frozen, so that the
        # collector's work in a pass does not grow with the pass count.
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        if tracer is None:
            with hostspeed.Sampler() as sampler:
                latencies, outputs = run_pass(jobs, sampler)
        else:
            latencies, outputs = run_pass(jobs)
        passes.append((latencies, outputs))
        walls.append(sum(latencies))
        if tracer is not None:
            latencies, outputs, metrics = traced_pass(jobs, tracer)
            passes.append((latencies, outputs))
            traced_walls.append(sum(latencies))
            traced_metrics.append(metrics)
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return passes, walls, traced_walls, traced_metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "ergocubes" / "__init__.py").is_file():
        print(f"error: no ergocubes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            }
        )
    )

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, str(workdir / "inputs"))
        if args.trace:
            import spans

            tracer = spans.Tracer()
            passes, walls, traced_walls, traced_metrics = timed_passes(jobs, args.seconds, tracer)
            metrics = {name: statistics.median(m[name] for m in traced_metrics) for name in traced_metrics[0]}
            metrics["bench.traced_wall_s"] = statistics.median(traced_walls)
            metrics["bench.trace_overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
            metrics["bench.jobs"] = len(jobs)
            out_dir = ROOT / ".perfbench" / "traces"
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(out_dir / f"{args.workload}-seed{args.seed}.csv")
            result_metrics = {name: {"value": value, "unit": spans.unit(name)} for name, value in sorted(metrics.items())}
        else:
            passes, walls, _, _ = timed_passes(jobs, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # The first pass warms up the interpreter and allocator; it is
            # checked but not timed, unless it is the only one.
            timed = passes[1:] or passes
            per_job = [statistics.median(samples) for samples in zip(*(p[0] for p in timed))]
            result_metrics = {
                "setup_s": {"value": measure_setup(args.workload, args.seed, workdir), "unit": "s"},
                "wall_s": {"value": sum(per_job), "unit": "s"},
                "job_p50_s": {"value": statistics.median(per_job), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        failed = check_outputs(jobs, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(jobs) * len(passes)
    print(f"jobs per pass: {len(jobs)}, passes: {len(passes)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
