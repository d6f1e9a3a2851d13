"""Command-line experiment runner.

    qnls run <config-file> [overrides]     run a config file
    qnls <experiment> [overrides]          run an experiment with defaults
    qnls config <experiment>               print the default config
    qnls plots <run-dir>                   write the gnuplot stub for a run

Overrides, each the config line it sets, checked as one: --output-dir, --seed, --dt, --t-end.
Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 configuration error
(for plots: a run directory without its manifest.json or data files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    ConfigError,
    EXPERIMENTS,
    default_config,
    parse_config,
    serialize_config,
)
from .experiments import RunManifest, emit_plots, run


def _add_overrides(sub):
    sub.add_argument("--output-dir", help="sets [experiment] output_dir: where data files and manifest go")
    sub.add_argument("--seed", type=int, help="sets [measure] base_seed, the ensemble base seed")
    sub.add_argument("--dt", type=float, help="sets [flow] dt, the RK4 step size")
    sub.add_argument("--t-end", type=float, help="sets [run] t_end, the time horizon")


def _overrides(args) -> dict:
    return {
        "output_dir": args.output_dir,
        "base_seed": args.seed,
        "dt": args.dt,
        "t_end": args.t_end,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnls", description="quintic NLS experiment harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to a config file")
    _add_overrides(p_run)

    p_cfg = sub.add_parser("config", help="print the default config for an experiment")
    p_cfg.add_argument("experiment", choices=EXPERIMENTS)

    p_plots = sub.add_parser("plots", help="emit the gnuplot stub for a finished run")
    p_plots.add_argument("run_dir", help="directory containing manifest.json")

    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment with defaults")
        _add_overrides(p)
    return parser


def _report(manifest: RunManifest) -> None:
    print(f"experiment: {manifest.experiment} (qnls {manifest.version})")
    if manifest.error:
        print(f"ERROR: {manifest.error}")
    for v in manifest.verdicts:
        print(f"  [{'PASS' if v.passed else 'FAIL'}] {v.name}: {v.stats}")
    print("result:", "PASS" if manifest.passed else "FAIL")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "plots":
        try:
            print(f"wrote {emit_plots(args.run_dir)}")
        except (OSError, ValueError) as exc:  # missing files, or not a run manifest
            print(f"plots error: {exc}", file=sys.stderr)
            return 2
        return 0
    try:
        if args.command == "config":
            sys.stdout.write(serialize_config(default_config(args.experiment)))
            return 0
        if args.command == "run":
            cfg = parse_config(Path(args.config).read_text(), **_overrides(args))
        else:
            cfg = default_config(args.command, **_overrides(args))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    manifest = run(cfg)
    _report(manifest)
    return 0 if manifest.passed else 1


if __name__ == "__main__":
    sys.exit(main())
