"""The benchmark's workloads: which experiments one pass runs, and at what size.

Every config starts from ``default_config(name)``, so a later change to a
default dt, integrator or grid shows in the numbers. Only size knobs
(``t_end``, ``ensemble_size``, ``n_fields``, and ``times``, which is
``transport_mc``'s horizon) and the seeds are overridden, and ``workers``
stays 1: one process, no pool.

Passes are short (1 to 3 s) so that a run holds a dozen or so of them, and
the median of their calibrated times (see run.py) rests on many samples.

The ``--seed`` argument picks one of ``SEED_VARIANTS`` input sets: variant
``k = seed % SEED_VARIANTS`` adds ``k`` to every seed a config carries, so
variant 0 is the default config. The verdicts each variant gives at this
commit are tabled in ``expected_verdicts.json`` (written by
``record_verdicts.py``), and a pass is correct only if it reproduces them.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from qnls.config import ExperimentConfig, apply_overrides, default_config

SEED_VARIANTS = 32
EXPECTED_PATH = Path(__file__).resolve().parent / "expected_verdicts.json"

# Why each workload exists is recorded in BENCHMARK.json.
#   trajectory: sequential chains of steps; batching cannot help, so per-step
#               overhead, FFT size and the n^2*dt step cap set the time.
#   ensemble:   independent members (100 is the least tail_ratio accepts),
#               100 steps each.
#   fields:     field evaluation without any time step.
SIZES: dict[str, list[tuple[str, dict]]] = {
    "trajectory": [
        ("conservation", {}),
        ("plane_wave_order", {}),
        ("focusing_local", {}),
        ("growth", {"t_end": 2.0}),
        ("truncation_convergence", {"t_end": 0.02}),
    ],
    "ensemble": [("transport_mc", {"ensemble_size": 100, "times": (0.05, 0.1)})],
    "fields": [
        ("continuity", {"n_fields": 500}),
        ("linear_invariance", {"ensemble_size": 500}),
        ("smoothing_sweep", {"ensemble_size": 32}),
    ],
}

WORKLOADS = tuple(SIZES)
_RUN_KNOBS = ("t_end", "ensemble_size")
_PARAM_KNOBS = ("n_fields", "times")
_PARAM_SEEDS = ("seed", "flow_seed")


def sized_config(experiment: str, knobs: dict, variant: int) -> ExperimentConfig:
    """Default config of `experiment` with size knobs and seed variant applied."""
    cfg = default_config(experiment)
    cfg = apply_overrides(
        cfg,
        base_seed=cfg.measure.base_seed + variant,
        workers=1,
        t_end=knobs.get("t_end"),
    )
    if "ensemble_size" in knobs:
        cfg = replace(cfg, run=replace(cfg.run, ensemble_size=knobs["ensemble_size"]))
    params = dict(cfg.params)
    for key in _PARAM_SEEDS:
        if key in params:
            params[key] += variant
    for key in _PARAM_KNOBS:
        if key in knobs:
            params[key] = knobs[key]
    unknown = set(knobs) - set(_RUN_KNOBS) - set(_PARAM_KNOBS)
    if unknown:
        raise ValueError(f"not a size knob: {sorted(unknown)}")
    return replace(cfg, params=params)


def trajectories(cfg: ExperimentConfig) -> int:
    """How many trajectories an experiment integrates up to its t_end."""
    pm = cfg.params
    if cfg.experiment == "plane_wave_order":
        return len(pm["dt_list"])  # one per dt
    if cfg.experiment == "focusing_local":
        return len(pm["amplitudes"]) + 1  # plus the control that must trip
    if cfg.experiment == "truncation_convergence":
        return 1 + len(pm["flow_m_list"]) if pm["with_flow"] else 0  # reference + cutoffs
    return 1


def work_units(workload: str, cfg: ExperimentConfig) -> float:
    """One experiment's share of its workload's unit of work.

    trajectory: scheduled simulated time, trajectories x t_end (a trajectory
                the H^1 guard stops early still counts in full);
    ensemble:   members;
    fields:     fields evaluated (n_fields, else ensemble members).
    """
    if workload == "trajectory":
        return trajectories(cfg) * cfg.run.t_end
    return cfg.params.get("n_fields", cfg.run.ensemble_size)


def plan(workload: str, seed: int, expected: dict | None):
    """[(experiment, config, expected verdicts or None, work units)] of one pass."""
    variant = seed % SEED_VARIANTS
    steps = []
    for experiment, knobs in SIZES[workload]:
        cfg = sized_config(experiment, knobs, variant)
        verdicts = None
        if expected is not None:
            verdicts = expected[workload][str(variant)][experiment]
        steps.append((experiment, cfg, verdicts, work_units(workload, cfg)))
    return steps


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())
