"""Set-up probe: start, import ergocubes, write one workload's inputs, report.

run.py starts this script several times and times each process from its
start until it prints "ready KERNEL_S KERNEL_MEAN_S": the seconds its host
speed sampler ran, and their mean per kernel run (see hostspeed.py).
Usage: probe.py WORKLOAD SEED WORKDIR.
"""

import sys
from pathlib import Path

import hostspeed

with hostspeed.Sampler() as sampler:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads  # noqa: E402  (imports ergocubes)

    workloads.make_jobs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(f"ready {sum(sampler.seconds)!r} {sampler.mean()!r}", flush=True)
