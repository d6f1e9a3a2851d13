"""One fresh benchmark process: set up, run passes of a workload, report JSON.

Started by run.py, never by hand, several times per run. The last stdout
line is a JSON object with this process's set-up time, the failed
experiments, and per pass each experiment's wall time; with ``--trace 0``
a calibration job is timed after set-up and after every pass, and with
``--trace 1`` passes alternate untraced and traced, and each traced pass
adds its per-layer values. run.py turns these into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# The calibration job: split steps of a cubic Schrodinger equation on a few
# small grids plus a little dict work, in numpy and Python only. Like qnls at
# these sizes it is bound by per-call overhead and small FFTs, so when
# neighbours on a shared host slow this process it slows by about as much.
CAL_STEPS = 6000
CAL_POINTS = 196
_CAL_START = np.exp(2j * np.pi * np.arange(CAL_POINTS) / CAL_POINTS) * np.ones((4, 1))
_CAL_LINEAR = np.exp(-1e-3j * np.fft.fftfreq(CAL_POINTS, 1 / CAL_POINTS) ** 2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    return ap.parse_args(argv)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def calibrate() -> float:
    """Seconds the calibration job takes now. It uses no qnls code, so a
    change to the program cannot move it; it keeps |u| = 1, so it never
    reaches overflow or NaN, whose arithmetic runs at another speed."""
    u = _CAL_START
    t0 = time.perf_counter()
    for _ in range(CAL_STEPS):
        v = np.fft.ifft(u, axis=1)
        u = np.fft.fft(v * np.exp(1e-3j * (v.real**2 + v.imag**2)), axis=1) * _CAL_LINEAR
        table = {}
        for i in range(60):
            table[i] = i * i + len(table)
    return time.perf_counter() - t0


def check_output(manifest, out: Path, expected: dict) -> list[str]:
    """Problems with one experiment's run: an error, a verdict differing from
    the table, or a data file whose checksum disagrees with manifest.json."""
    problems = []
    if manifest.error is not None:
        problems.append(f"raised {manifest.error}")
    got = {v.name: bool(v.passed) for v in manifest.verdicts}
    if got != expected:
        problems.append(f"verdicts {got} != expected {expected}")
    recorded = json.loads((out / "manifest.json").read_text())["files"]
    for name, digest in recorded.items():
        if _sha256(out / name) != digest:
            problems.append(f"checksum of {name} differs from manifest.json")
    return problems


def run_pass(steps, run, tracer=None):
    """Run every experiment of the workload once, each in a fresh directory.

    Returns (wall seconds per experiment, one problem line per failed
    experiment, bytes written). Only the run() calls are timed; checks and
    clean-up are not.
    """
    walls, problems, written = {}, [], 0
    for experiment, cfg, expected, _ in steps:
        out = Path(tempfile.mkdtemp(prefix=f"{experiment}-", dir=OUT))
        try:
            cfg = replace(cfg, output_dir=str(out))
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    manifest = run(cfg)
                else:
                    manifest = tracer.call(f"experiments.run.{experiment}", run, cfg)
            except Exception as exc:  # counted as a failed experiment, not a crash
                manifest = None
                bad = [f"run() raised {type(exc).__name__}: {exc}"]
            walls[experiment] = time.perf_counter() - t0
            if manifest is not None:
                bad = check_output(manifest, out, expected)
            if bad:
                problems.append(f"{experiment}: " + "; ".join(bad))
            written += sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        finally:
            shutil.rmtree(out)
    return walls, problems, written


def layer_metrics(tracer, written) -> dict:
    """Per-layer values of one traced pass."""
    from tracing import LAYER_TARGETS, fft_cost

    totals = tracer.totals()
    m = {}
    for name in dict.fromkeys(t[0] for t in LAYER_TARGETS):
        calls, busy = totals.get(name, (0, 0.0))
        if name == "experiments.io":
            m["experiments.io_s"] = busy
            continue
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = busy
    for size, calls in tracer.fft_calls.items():
        m[f"spectral.fft.n{size}.calls"] = calls
    m["spectral.fft_flops_computed"], m["spectral.fft_bytes_computed"] = fft_cost(
        tracer.fft_calls
    )
    steps = m["flow.step.calls"]
    trips = tracer.raised[("flow.step", "BlowUpError")]
    m["flow.guard_trips"] = trips
    m["flow.useful_step_ratio"] = (steps - trips) / steps if steps else 1.0
    m["experiments.bytes_written"] = written
    return m


def save_spans(tracer, path: Path) -> None:
    np.savez(
        path,
        names=np.array(tracer.names),
        name_id=np.frombuffer(tracer.name_id, dtype=np.int32),
        parent=np.frombuffer(tracer.parent, dtype=np.int64),
        start=np.frombuffer(tracer.start),
        end=np.frombuffer(tracer.end),
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import scipy

    import qnls
    from qnls import spectral
    from qnls.experiments import run

    if not Path(qnls.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qnls imported from {qnls.__file__}, not from this checkout")
    import workloads

    steps = workloads.plan(args.workload, args.seed, workloads.load_expected())
    grid = steps[0][1].grid
    spectral.synthesize(np.zeros(2 * grid.modes + 1, complex), grid.modes, grid.quintic_pad())
    setup_s = time.monotonic() - args.spawned_at

    OUT.mkdir(exist_ok=True)
    units = sum(s[3] for s in steps)
    deadline = time.perf_counter() + args.seconds
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    untraced, traced, layers, problems = [], [], [], []
    calibration = [] if args.trace else [calibrate()]
    attempted = 0
    while True:
        t0 = time.perf_counter()
        walls, bad, written = run_pass(steps, run)
        untraced.append(walls)
        if not args.trace:
            calibration.append(calibrate())
        problems += bad
        attempted += len(steps)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                walls, bad, written = run_pass(steps, run, tracer)
            finally:
                tracer.uninstall()
            traced.append(walls)
            problems += bad
            attempted += len(steps)
            layers.append(layer_metrics(tracer, written))
        now = time.perf_counter()
        if now + (now - t0) / 2 > deadline:  # start a pass only if half of it fits
            break

    result = {
        "setup_s": setup_s,
        "calibration": calibration,
        "attempted": attempted,
        "problems": problems,
        "units": units,
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        save_spans(tracer, OUT / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
