"""Replay the benchmark's plan and the default configs, and compare replays.

    python tests/replay_plan.py dump <checkout> <out.json>
    python tests/replay_plan.py diff <a.json> <b.json>
    python tests/replay_plan.py verdicts <a.json> <b.json>
    python tests/replay_plan.py files <a.json> <b.json>

`dump` imports qnls and the benchmark's workloads from <checkout> (its src/
and perfbench/) and runs, each in a temporary directory:
- every config of workloads.plan(w, v, None), for each workload w and seed
  variant v;
- each experiment's default config, growth at t_end = 20.
It records per run the sha256 of each data file (config.ini is left out: it
echoes the temporary output_dir), the verdicts with their stats, and the
error, as JSON.

`diff` prints the runs whose records differ between two dumps, and exits 1
if any do. Two checkouts that should give the same data give an empty diff.
`verdicts` does the same on each run's verdict names and pass flags and its
error alone: a change that moves rounding on purpose moves data files and
stats, and must still pass and fail the same verdicts. `files` lists, per
experiment, each data file whose sha256 differs in some run with the number
of such runs, and exits 1 if any does: what such a change moved.

Pytest does not collect this file. A dump takes about 40 s on one core when
nothing else runs on it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

GROWTH_T_END = 20.0


def _record(out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    return {
        "files": {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
            if path.name not in ("config.ini", "manifest.json")
        },
        "verdicts": [[v["name"], v["passed"], v["stats"]] for v in manifest["verdicts"]],
        "error": manifest["error"],
    }


def dump(checkout: Path, out_json: Path) -> None:
    checkout = checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import qnls
    import workloads
    from qnls.config import EXPERIMENTS, default_config
    from qnls.experiments import run

    if not Path(qnls.__file__).resolve().is_relative_to(checkout / "src"):
        raise SystemExit(f"qnls imported from {qnls.__file__}, not from {checkout}")
    configs = [
        (f"{w}/{v}/{experiment}", cfg)
        for w in workloads.WORKLOADS
        for v in range(workloads.SEED_VARIANTS)
        for experiment, cfg, _, _ in workloads.plan(w, v, None)
    ]
    for name in EXPERIMENTS:
        t_end = GROWTH_T_END if name == "growth" else None
        configs.append((f"default/{name}", default_config(name, t_end=t_end)))
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (key, cfg) in enumerate(configs):
            out = Path(tmp) / str(i)
            run(replace(cfg, output_dir=str(out)))
            records[key] = _record(out)
    out_json.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} runs from {checkout} -> {out_json}")


def outcome(record: dict | None) -> dict | None:
    """A run's record cut to its verdicts' (name, passed) and its error."""
    if record is None:
        return None
    return {"verdicts": [v[:2] for v in record["verdicts"]], "error": record["error"]}


def diff(a_json: Path, b_json: Path, view=lambda record: record) -> int:
    a, b = (json.loads(p.read_text()) for p in (a_json, b_json))
    differ = 0
    for key in sorted(a.keys() | b.keys()):
        # compared as canonical JSON text, so that NaN stats compare equal
        ra, rb = (json.dumps(view(r.get(key)), sort_keys=True) for r in (a, b))
        if ra != rb:
            differ += 1
            print(f"{key}:\n  a: {ra}\n  b: {rb}")
    print(f"{differ} of {len(a.keys() | b.keys())} runs differ")
    return 1 if differ else 0


def files(a_json: Path, b_json: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (a_json, b_json))
    # moved[experiment][file]: the runs in which that file's sha256 differs
    moved = defaultdict(Counter)
    for key in a.keys() | b.keys():
        fa, fb = ((r.get(key) or {}).get("files", {}) for r in (a, b))
        moved[key.split("/")[-1]].update(name for name in fa.keys() | fb.keys() if fa.get(name) != fb.get(name))
    moved = {experiment: counts for experiment, counts in moved.items() if counts}
    for experiment in sorted(moved):
        print(f"{experiment}: " + ", ".join(f"{name} in {n} runs" for name, n in sorted(moved[experiment].items())))
    print(f"{sum(map(len, moved.values()))} data files of {len(moved)} experiments differ")
    return 1 if moved else 0


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in ("dump", "diff", "verdicts", "files"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "dump":
        dump(Path(argv[1]), Path(argv[2]))
        return 0
    a_json, b_json = Path(argv[1]), Path(argv[2])
    if argv[0] == "files":
        return files(a_json, b_json)
    return diff(a_json, b_json, outcome) if argv[0] == "verdicts" else diff(a_json, b_json)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
