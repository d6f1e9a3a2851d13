"""Benchmark two checkouts in alternating pairs, for a speed claim that can be replayed.

    python tests/bench_pairs.py <parent> <change> --workload trajectory --pairs 10 --seed 1

Pair i runs `perfbench/run.py --workload W --seed S+i --seconds 36 --trace 0`
in each checkout, one after the other; the parent runs first in even pairs
and the change first in odd ones, so that a drift in the host's speed falls
on both sides alike. Each run's metrics, its `correct` flag and its count of
failed operations are read from the JSON summary on the last line of its
output (run.py exits 0 when some of its operations fail).

It prints the wall_s of both sides per pair, then per end-to-end metric: the
median of each side, the parent's quartiles and interquartile range, and the
pairs the change wins. A claimed gain on wall_s needs every change run
correct, no more failed operations on the change than on the parent, the
change better in at least 9 of 10 pairs (the same share of any count) and its
median better by more than the parent's interquartile range; the last line
says whether the claim holds, and if not, why. Whether a metric is better
lower or higher is read from the parent's BENCHMARK.json.

`--record BENCH_<pr>.json` also writes the pairs it ran into that JSON
file: per pair its seed, the side run first and each side's `correct`,
`failed` and metrics; per metric the summary above; the claim's verdict and
reasons; and the machine block run.py prints. The file holds one entry per
workload, so runs of other workloads recorded in it before are kept.

Pytest does not collect this file. Ten pairs at 36 s take about 15 minutes.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 36
WIN_SHARE = 0.9
METRIC = "wall_s"


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in `checkout`: whether it was `correct`, how many
    operations `failed`, and its end-to-end `metrics` by name."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{checkout}: perfbench/run.py exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    machine = [json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("machine:")]
    return {
        "correct": summary["correct"],
        "failed": summary["failed"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "machine": machine[0] if machine else None,
    }


def summarize(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    """Medians, the parent's quartiles and the pairs the change wins, and
    whether that makes a claimed gain: wins in at least WIN_SHARE of the
    pairs, and a median gap in the better direction wider than the
    parent's interquartile range. Quartiles are statistics.quantiles's
    (exclusive method) and need at least two pairs."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equal lists of at least two runs")
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    needed = math.ceil(WIN_SHARE * len(parent))
    gain = sign * (med_p - med_c)
    return {
        "parent_median": med_p,
        "change_median": med_c,
        "ratio": med_c / med_p if med_p else math.nan,
        "parent_q1": q1,
        "parent_q3": q3,
        "parent_iqr": q3 - q1,
        "wins": wins,
        "pairs": len(parent),
        "wins_needed": needed,
        "claim_holds": wins >= needed and gain > q3 - q1,
    }


def pair_order(i: int) -> tuple[str, str]:
    """Which side runs first in pair i."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def failure_reasons(parent: list[dict], change: list[dict]) -> list[str]:
    """Why runs' failures void a claimed gain, whatever the timings say:
    a change run that is not correct, or more failed operations on the
    change than on the parent."""
    reasons = []
    wrong = sum(not r["correct"] for r in change)
    if wrong:
        reasons.append(f"{wrong} change run(s) not correct")
    failed_p, failed_c = sum(r["failed"] for r in parent), sum(r["failed"] for r in change)
    if failed_c > failed_p:
        reasons.append(f"{failed_c} failed operations on the change against {failed_p} on the parent")
    return reasons


def record(path: Path, workload: str, seed: int, runs: dict, summaries: dict, claim: dict) -> None:
    """Write the pairs of `workload` that started at `seed`, with their
    summaries and claim, into the JSON file at `path`, keeping the other
    workloads recorded there."""
    data = json.loads(path.read_text()) if path.exists() else {}
    pairs = [
        {"seed": seed + i, "first": pair_order(i)[0],
         **{side: {k: v for k, v in runs[side][i].items() if k != "machine"} for side in runs}}
        for i in range(len(runs["parent"]))
    ]
    data["machine"] = runs["change"][-1].get("machine")
    data.setdefault("workloads", {})[workload] = {
        "run": f"perfbench/run.py --workload {workload} --seed <seed> --seconds {SECONDS} --trace 0",
        "pairs": pairs,
        "summary": summaries,
        "claim": claim,
    }
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i takes seed + i")
    ap.add_argument("--record", type=Path, help="JSON file (BENCH_<pr>.json) to write the pairs into")
    args = ap.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in pair_order(i):
            runs[side].append(run_once(checkouts[side], args.workload, seed))
        last = {side: runs[side][-1] for side in runs}
        p, c = last["parent"]["metrics"][METRIC], last["change"]["metrics"][METRIC]
        print(f"pair {i + 1:2d} seed {seed:3d} ({pair_order(i)[0]} first): "
              f"{METRIC} parent {p:.4f}  change {c:.4f}  ratio {c / p:.3f}; failed operations "
              f"parent {last['parent']['failed']}  change {last['change']['failed']}", flush=True)
    print(f"workload {args.workload}, {args.pairs} pairs")
    summaries = {}
    for name in runs["parent"][0]["metrics"]:
        s = summaries[name] = summarize([r["metrics"][name] for r in runs["parent"]],
                                        [r["metrics"][name] for r in runs["change"]], lower[name])
        print(f"  {name}: median parent {s['parent_median']:.4g}  change {s['change_median']:.4g}"
              f"  (ratio {s['ratio']:.3f}); parent quartiles {s['parent_q1']:.4g} .. {s['parent_q3']:.4g}"
              f"  (IQR {s['parent_iqr']:.3g}); change better in {s['wins']} of {s['pairs']}")
    result = summaries.get(METRIC)
    if result is None:
        raise SystemExit(f"the benchmark reported no {METRIC}")
    reasons = failure_reasons(runs["parent"], runs["change"])
    holds = result["claim_holds"] and not reasons
    print(f"claim on {METRIC}: {'holds' if holds else 'does not hold'} "
          f"({result['wins']} wins of {result['pairs']}, {result['wins_needed']} needed; "
          f"median gap {abs(result['parent_median'] - result['change_median']):.4g}"
          f" against parent IQR {result['parent_iqr']:.4g}"
          + "".join(f"; {r}" for r in reasons) + ")")
    if args.record:
        claim = {"metric": METRIC, "holds": holds, "reasons": reasons}
        record(args.record, args.workload, args.seed, runs, summaries, claim)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
