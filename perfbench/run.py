#!/usr/bin/env python3
"""Run one workload of the qnls benchmark and print its metrics.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 36 --trace 0

The workload runs through qnls's public API for about ``--seconds`` seconds,
whole passes only, split over several fresh processes run one after
another, and every experiment's verdicts are checked against
``expected_verdicts.json``. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, measured with tracing off; ``--trace 1`` reports the
per-layer metrics from a run that alternates untraced and traced passes. The last stdout line is the JSON result; the lines before it give
the machine and each metric by name and unit. Each result is also kept under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# A run is split into fresh processes that measure about this long each, one
# after another, so that each one's set-up is a sample of setup_s taken at a
# different moment of the run.
SEGMENT_S = 9.0
# Neighbours on a shared host slow a process by up to about 1.9x for minutes
# at a time, longer than a run, so no choice among a run's passes can undo it.
# The times with a bound are therefore rescaled to a host on which worker.py's
# calibration job takes CAL_REF_S: each is divided by the calibration timed
# next to it and multiplied by this constant.
CAL_REF_S = 0.3
TIME_LIMIT_S = 170.0  # the whole command must end within 180 s
FFT_SIZE_METRIC = re.compile(r"spectral\.fft\.n(\d+)\.calls")
# transform sizes and experiments a workload never uses
ZERO_IF_UNUSED = re.compile(r"spectral\.fft\.n\d+\.calls|experiments\.run\.\w+\.wall_s")
FFT_OTHER_METRIC = "spectral.fft.other_sizes.calls"


def parse_args(spec: dict, argv=None):
    ap = argparse.ArgumentParser(description="qnls benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    return ap.parse_args(argv)


def spawn(worker_args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result line."""
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned-at", repr(started)]
    try:
        proc = subprocess.run(
            cmd + worker_args,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("benchmark worker ran past the time limit") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_info(versions: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
    }


def quiet_pass_wall(passes: list[dict]) -> float:
    """Each experiment's fastest run over the passes, summed."""
    return sum(min(p[e] for p in passes) for e in passes[0])


def calibrated_wall(segments: list[dict]) -> float:
    """Mean pass time at reference speed: the passes' summed wall time over
    the calibration time matched to them (for each pass, the mean of the
    calibrations before and after it), times CAL_REF_S."""
    walls = cal = 0.0
    for s in segments:
        c = s["calibration"]
        for passed, before, after in zip(s["untraced"], c, c[1:]):
            walls += sum(passed.values())
            cal += (before + after) / 2
    return CAL_REF_S * walls / cal


def measure(segments: list[dict], trace: int) -> dict:
    """Metric values from the workers' per-pass results."""
    if trace:
        untraced = [p for s in segments for p in s["untraced"]]
        wall_s = quiet_pass_wall(untraced)
        layers = [m for s in segments for m in s["layers"]]
        keys = dict.fromkeys(k for m in layers for k in m)
        out = {k: statistics.median(m.get(k, 0) for m in layers) for k in keys}
        for experiment in untraced[0]:
            out[f"experiments.run.{experiment}.wall_s"] = min(p[experiment] for p in untraced)
        traced = [p for s in segments for p in s["traced"]]
        out["tracing.overhead_s"] = quiet_pass_wall(traced) - wall_s
        return out
    attempted = sum(s["attempted"] for s in segments)
    failed = sum(len(s["problems"]) for s in segments)
    wall_s = calibrated_wall(segments)
    return {
        "setup_s": statistics.median(
            CAL_REF_S * s["setup_s"] / s["calibration"][0] for s in segments
        ),
        "wall_s": wall_s,
        "work_per_s": segments[0]["units"] / wall_s,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in segments),
        "verdict_ok_frac": (attempted - failed) / attempted,
    }


def select(spec: list[dict], produced: dict) -> dict:
    """The metrics BENCHMARK.json names, with their units, from the measured values.

    Transform sizes and experiments a workload never uses read 0; sizes
    BENCHMARK.json does not name are summed into spectral.fft.other_sizes.calls.
    """
    named = {m["name"] for m in spec}
    other = sum(
        v for k, v in produced.items() if FFT_SIZE_METRIC.fullmatch(k) and k not in named
    )
    out = {}
    for m in spec:
        name = m["name"]
        if name in produced:
            value = produced[name]
        elif ZERO_IF_UNUSED.fullmatch(name):
            value = 0
        elif name == FFT_OTHER_METRIC:
            value = other
        else:
            raise SystemExit(f"the benchmark produced no value for {name}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec, argv)
    if not (ROOT / "src" / "qnls").is_dir():
        print(f"no qnls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    n_segments = max(1, round(args.seconds / SEGMENT_S))
    worker_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds / n_segments), "--trace", str(args.trace),
    ]
    segments = [spawn(worker_args, deadline) for _ in range(n_segments)]
    metrics = select(
        spec["per_layer" if args.trace else "end_to_end"], measure(segments, args.trace)
    )

    problems = [p for s in segments for p in s["problems"]]
    passes = sum(len(s["untraced"]) for s in segments)
    machine = machine_info(segments[0]["versions"])
    summary = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in segments),
        "failed": len(problems),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "problems": problems,
        "machine": machine,
        **summary,
        "segments": segments,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print("machine: " + json.dumps(machine))
    print(f"workload: {args.workload}  passes: {passes}")
    for problem in problems:
        print(f"FAILED {problem}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']!r} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
