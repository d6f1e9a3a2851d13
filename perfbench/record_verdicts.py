"""Write expected_verdicts.json: the verdicts every sized config gives.

    python3 perfbench/record_verdicts.py

Runs each workload's experiments once per seed variant, one job per
available CPU, and records each verdict's pass/fail, and the error of an
experiment that raised. The table is the benchmark's correctness gate, so regenerate it
only when the benchmark's configs change, never to absorb a change in the
program's results.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from qnls.experiments import run  # noqa: E402


def verdicts(job):
    workload, variant = job
    table = {}
    for experiment, cfg, _, _ in workloads.plan(workload, variant, None):
        out = tempfile.mkdtemp(prefix=f"{experiment}-", dir=HERE.parent / ".bench_out")
        try:
            manifest = run(replace(cfg, output_dir=out))
        finally:
            shutil.rmtree(out)
        table[experiment] = {v.name: bool(v.passed) for v in manifest.verdicts}
        if manifest.error is not None:
            # kept for the record; a run that raises always counts as failed
            table[experiment]["raised"] = manifest.error
    return job, table


def main() -> int:
    (HERE.parent / ".bench_out").mkdir(exist_ok=True)
    jobs = [(w, v) for w in workloads.WORKLOADS for v in range(workloads.SEED_VARIANTS)]
    table = {w: {} for w in workloads.WORKLOADS}
    ctx = multiprocessing.get_context("spawn")
    cpus = len(os.sched_getaffinity(0))
    with ProcessPoolExecutor(max_workers=cpus, mp_context=ctx) as pool:
        for (workload, variant), found in pool.map(verdicts, jobs):
            table[workload][str(variant)] = found
    workloads.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
