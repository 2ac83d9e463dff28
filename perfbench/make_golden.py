"""Record golden.json: the labelling-independent outputs of every job.

The seed only relabels points, so verdict lines, cube reports and sweep
verdicts must come out the same for every seed.  This script runs each
job that declares such an output once, on the canonical labelling, and
stores it by job name.  Rerun it only when an output is meant to change:

    python3 perfbench/make_golden.py
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

workdir = HERE.parent / ".perfbench" / "golden"
golden = {}
try:
    for workload in workloads.WORKLOADS:
        jobs = [job for job in workloads.make_jobs(workload, None, str(workdir)) if job.invariant is not None]
        _, outputs = run.run_pass(jobs)
        golden.update((job.name, job.invariant(out)) for job, out in zip(jobs, outputs))
finally:
    shutil.rmtree(workdir, ignore_errors=True)
(HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
print(f"wrote {len(golden)} golden outputs")
