"""Experiment configuration: one human-editable file = one experiment.

Grammar (INI-style, parsed strictly):

    [experiment]
    name = conservation          ; one of EXPERIMENTS
    output_dir = runs/conservation

    [grid]                        ; modes, the GridSpec's one field
    [flow]                        ; FlowParams fields (cutoff = full or an int)
    [measure]                     ; MeasureSpec fields (used where relevant)
    [run]                         ; horizon, ensemble size, sweep, and the
                                  ; stride at which evolve records states
    [params]                      ; experiment-specific knobs, typed per schema

Every key is typed and defaulted by a schema: the [grid] [flow] [measure]
[run] schemas are read off the dataclass fields, [params] is listed per
experiment below.  Unknown sections or keys are rejected (config drift
guard), and so are settings that a run would fail partway through or pass
having checked nothing.  Values: integers, finite floats (repr round-trip),
booleans (true/false), cutoffs, and comma-separated lists.  An override is
the config line it sets (_OVERRIDES), and it is checked as one.
serialize() emits a canonical form, so parse(serialize(c)) == c and replayed
configs diff cleanly.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields

from .flow import RK4_IMAGINARY_LIMIT, FlowParams
from .measure import MIN_TAIL_SAMPLES, MeasureSpec
from .spectral import GridSpec

class ConfigError(ValueError):
    """Invalid experiment configuration (field-level diagnostics)."""


@dataclass(frozen=True)
class RunSettings:
    """observer_stride is the stride, in steps, at which evolve records the
    states of conservation and growth (the name predates that)."""

    t_end: float = 1.0
    ensemble_size: int = 64
    m_sweep: tuple[int, ...] = (16, 32, 64, 128)
    observer_stride: int = 10


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    output_dir: str
    grid: GridSpec
    flow: FlowParams
    measure: MeasureSpec
    run: RunSettings
    params: dict = field(default_factory=dict)


# a schema maps key -> (type tag, default); type tags: int, float, bool,
# cutoff, int_list, float_list.  Section schemas take the tag from the field's
# annotation through _TAGS.
_TAGS = {
    "int": "int",
    "float": "float",
    "int | None": "cutoff",
    "tuple[int, ...]": "int_list",
}


def _schema(cls, **defaults) -> dict:
    """{key: (type tag, default)} of a dataclass, in field order."""
    return {f.name: (_TAGS[f.type], defaults.get(f.name, f.default)) for f in fields(cls)}


PARAMS_SCHEMA: dict[str, dict] = {
    "conservation": {
        "seed": ("int", 42),
        "amplitude": ("float", 0.2),
        "width": ("float", 4.0),
        "bias": ("float", 0.25),
        "bias_mode": ("int", 2),
        "drift_tol": ("float", 1e-8),
    },
    "plane_wave_order": {
        "mode": ("int", 2),
        "amplitude": ("float", 1.0),
        "dt_list": ("float_list", (4e-3, 2e-3, 1e-3, 5e-4)),
        "min_order": ("float", 3.7),
        "max_order": ("float", 4.3),
    },
    "continuity": {
        "n_fields": ("int", 1000),
        "max_modes": ("int", 64),
        "seed": ("int", 7),
        "eleele_tol": ("float", 1e-9),
        "continuity_tol": ("float", 1e-8),
        "j0_tol": ("float", 1e-9),
    },
    "linear_invariance": {
        "times": ("float_list", (0.1, 1.0, math.pi, 1.0 + math.sqrt(2.0))),
        "alpha": ("float", 0.05),
    },
    "smoothing_sweep": {
        "m0": ("int", 10),
        "uniformity_factor": ("float", 2.0),
        "slope_min": ("float", 1.0),
        "perturbation": ("float", 0.1),
    },
    "growth": {
        "seed": ("int", 42),
        "amplitude": ("float", 0.2),
        "width": ("float", 4.0),
        "fit_fraction": ("float", 0.1),
        "slack": ("float", 2.0),
    },
    "transport_mc": {
        "times": ("float_list", (0.25, 0.5)),
        "quantile": ("float", 0.9),
        "log_slack": ("float", 0.6931471805599453),
    },
    "truncation_convergence": {
        "n_samples": ("int", 4),
        "m_list": ("int_list", (16, 32, 64, 128, 256)),
        "final_fraction": ("float", 1e-3),
        "with_flow": ("bool", True),
        "flow_modes": ("int", 128),
        "flow_m_list": ("int_list", (8, 16, 32, 64)),
        "flow_dt": ("float", 1e-4),
        "flow_amplitude": ("float", 0.4),
        "flow_decay": ("float", 8.0),
        "flow_seed": ("int", 5),
    },
    "focusing_local": {
        "amplitudes": ("float_list", (1.0, 1.6, 2.0)),
        "trip_amplitude": ("float", 3.0),
    },
}

EXPERIMENTS = tuple(PARAMS_SCHEMA)  # one [params] schema per experiment, in CLI order

_SECTIONS = {
    "grid": _schema(GridSpec, modes=32),
    "flow": _schema(FlowParams),
    "measure": _schema(MeasureSpec),
    "run": _schema(RunSettings),
}

# override name -> the (section, key) of the config line it sets
_OVERRIDES = {
    "output_dir": ("experiment", "output_dir"),
    "base_seed": ("measure", "base_seed"),
    "dt": ("flow", "dt"),
    "t_end": ("run", "t_end"),
}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return value


def _parse_value(tag: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return _finite(raw)
        if tag == "bool":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if tag == "cutoff":
            return None if raw.lower() == "full" else int(raw)
        if tag == "int_list":
            return tuple(int(x) for x in raw.split(",") if x.strip())
        if tag == "float_list":
            return tuple(_finite(x) for x in raw.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: unknown type tag {tag}")


def _format_value(tag: str, value) -> str:
    if tag == "bool":
        return "true" if value else "false"
    if tag == "cutoff":
        return "full" if value is None else str(value)
    if tag in ("int_list", "float_list"):
        return ", ".join(repr(v) if tag == "float_list" else str(v) for v in value)
    if tag == "float":
        return repr(float(value))
    return str(value)


def _read_section(cp, name, schema) -> dict:
    out = {key: default for key, (tag, default) in schema.items()}
    if not cp.has_section(name):
        return out
    for key in cp.options(name):
        if key not in schema:
            raise ConfigError(f"[{name}] unknown key {key!r}")
        tag = schema[key][0]
        out[key] = _parse_value(tag, cp.get(name, key), f"[{name}] {key}")
    return out


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """The config `text` describes, each non-None override set first as its line (_OVERRIDES)."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep keys case-sensitive (M vs m)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    for name, value in overrides.items():
        if name not in _OVERRIDES:
            raise TypeError(f"unknown override {name!r}; choose from {tuple(_OVERRIDES)}")
        if value is not None:
            section, key = _OVERRIDES[name]
            cp.read_dict({section: {key: value}})

    if not cp.has_section("experiment") or not cp.has_option("experiment", "name"):
        raise ConfigError("[experiment] section with a name key is required")
    for key in cp.options("experiment"):
        if key not in ("name", "output_dir"):
            raise ConfigError(f"[experiment] unknown key {key!r}")
    name = cp.get("experiment", "name").strip()
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    output_dir = cp.get("experiment", "output_dir", fallback=f"runs/{name}").strip()

    known = {"experiment", "params", *_SECTIONS}
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]")

    kw = {section: _read_section(cp, section, schema) for section, schema in _SECTIONS.items()}
    params = _read_section(cp, "params", PARAMS_SCHEMA[name])

    try:
        grid = GridSpec(**kw["grid"])
        flow = FlowParams(**kw["flow"])
        flow.check_grid(grid)
        measure = MeasureSpec(**kw["measure"])
        run = RunSettings(**kw["run"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if run.t_end <= 0:
        raise ConfigError("[run] t_end must be positive")
    if run.ensemble_size < 1 or run.observer_stride < 1:
        raise ConfigError("[run] ensemble_size and observer_stride must be >= 1")
    unmet = _unmet_needs(name, params, grid, flow, measure, run)
    if unmet:
        raise ConfigError(f"{name} needs " + "; ".join(unmet))
    return ExperimentConfig(
        experiment=name,
        output_dir=output_dir,
        grid=grid,
        flow=flow,
        measure=measure,
        run=run,
        params=params,
    )


def _unmet_needs(
    name: str, pm: dict, grid: GridSpec, flow: FlowParams, measure: MeasureSpec, run: RunSettings
) -> list[str]:
    """What experiment `name` needs of its settings and does not get: without
    it a run fails partway through, passes having checked nothing, or takes
    RK4's own blow-up for the flow's."""
    needs = {}
    if name == "plane_wave_order":
        # the run takes round(t_end / dt) steps and compares at t_end
        steps = [run.t_end / dt for dt in pm["dt_list"] if dt > 0]
        needs = {
            "at least 2 dt_list entries": len(pm["dt_list"]) >= 2,
            "dt_list entries that divide t_end into whole steps": len(steps) == len(pm["dt_list"])
            and all(abs(n - round(n)) <= 1e-9 * n for n in steps),
            "|mode| <= [grid] modes": abs(pm["mode"]) <= grid.modes,
        }
    elif name == "continuity":
        needs = {"n_fields >= 1": pm["n_fields"] >= 1, "max_modes >= 4": pm["max_modes"] >= 4}
    elif name == "linear_invariance":
        # alpha = 0 makes the KS critical value infinite
        needs = {"a times entry": len(pm["times"]) >= 1, "0 < alpha < 1": 0 < pm["alpha"] < 1}
    elif name == "focusing_local":
        needs = {"an amplitudes entry": len(pm["amplitudes"]) >= 1}
    elif name == "smoothing_sweep":
        sweep = run.m_sweep
        in_grid = all(1 <= M <= grid.modes for M in sweep)
        needs = {"at least 2 m_sweep entries, in [1, [grid] modes]": len(sweep) >= 2 and in_grid}
    elif name == "transport_mc":
        t = pm["times"]
        needs = {
            f"ensemble_size >= {MIN_TAIL_SAMPLES}": run.ensemble_size >= MIN_TAIL_SAMPLES,
            "times, positive and distinct": len(t) >= 1 and min(t) > 0 and len(set(t)) == len(t),
            "0 < quantile < 1": 0 < pm["quantile"] < 1,
        }
    elif name == "growth":
        # C is fitted on the states recorded at 0 < t <= fit_fraction * t_end and
        # checked on the rest; evolve records the first one at observer_stride * dt
        first, window = run.observer_stride * flow.dt, pm["fit_fraction"] * run.t_end
        needs = {
            "0 < fit_fraction < 1": 0 < pm["fit_fraction"] < 1,
            "a recorded state in the fit window: observer_stride * dt <= fit_fraction * t_end": first <= window,
        }
    elif name == "truncation_convergence":
        m, fm, top = pm["m_list"], pm["flow_m_list"], pm["flow_modes"]
        needs = {
            "n_samples >= 1": pm["n_samples"] >= 1,
            "a strictly increasing m_list": len(m) >= 1 and all(a < b for a, b in zip(m, m[1:])),
            "flow_modes >= 1 and at least 2 flow_m_list entries in [0, flow_modes]": not pm["with_flow"]
            or (top >= 1 and len(fm) >= 2 and all(0 <= M <= top for M in fm)),
            "flow_dt > 0": not pm["with_flow"] or pm["flow_dt"] > 0,
        }
    # the largest linear rate n^2 dt a stepping experiment takes; beyond RK4's
    # limit on the imaginary axis a numerical blow-up passes for a focusing trip
    rate = None
    if name in ("conservation", "growth", "transport_mc", "focusing_local"):
        rate = "modes^2 * dt", grid.modes**2 * flow.dt
    elif name == "plane_wave_order" and pm["dt_list"]:
        rate = "modes^2 * max(dt_list)", grid.modes**2 * max(pm["dt_list"])
    elif name == "truncation_convergence" and pm["with_flow"]:
        rate = "flow_modes^2 * flow_dt", pm["flow_modes"] ** 2 * pm["flow_dt"]
    if rate is not None:
        what, value = rate
        needs[f"{what} <= 2*sqrt(2), RK4's stability limit"] = value <= RK4_IMAGINARY_LIMIT
    # sample_mu draws modes |n| <= M onto the grid
    if name in ("linear_invariance", "smoothing_sweep", "transport_mc", "truncation_convergence"):
        needs["[measure] M <= [grid] modes"] = measure.M <= grid.modes
    return [need for need, met in needs.items() if not met]


def serialize_config(cfg: ExperimentConfig) -> str:
    buf = io.StringIO()
    buf.write("[experiment]\n")
    buf.write(f"name = {cfg.experiment}\n")
    buf.write(f"output_dir = {cfg.output_dir}\n")
    for section, schema in _SECTIONS.items():
        buf.write(f"\n[{section}]\n")
        for key, (tag, _) in schema.items():
            buf.write(f"{key} = {_format_value(tag, getattr(getattr(cfg, section), key))}\n")
    buf.write("\n[params]\n")
    schema = PARAMS_SCHEMA[cfg.experiment]
    for key, (tag, _) in schema.items():
        buf.write(f"{key} = {_format_value(tag, cfg.params[key])}\n")
    return buf.getvalue()


# per-experiment section defaults; anything not listed falls back to the
# generic schema defaults above
EXPERIMENT_DEFAULTS: dict[str, str] = {
    "conservation": "",
    "plane_wave_order": "[grid]\nmodes = 8\n\n[run]\nt_end = 0.5\n",
    "continuity": "[grid]\nmodes = 64\n",
    "linear_invariance": "[run]\nensemble_size = 1000\n",
    "smoothing_sweep": "[grid]\nmodes = 128\n\n[measure]\nM = 128\n",
    "growth": "[run]\nt_end = 200.0\nobserver_stride = 100\n",
    "transport_mc": "[flow]\ncutoff = 32\n\n[run]\nensemble_size = 256\nt_end = 0.5\n",
    "truncation_convergence": "[grid]\nmodes = 256\n\n[measure]\nM = 256\n",
    "focusing_local": "[flow]\nsigma = -1\ndt = 0.0005\n\n[run]\nt_end = 0.5\n",
}


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    """Default configuration for an experiment. Each keyword override sets its
    config line, checked like the rest: output_dir sets [experiment] output_dir,
    base_seed [measure] base_seed, dt [flow] dt and t_end [run] t_end."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    return parse_config(f"[experiment]\nname = {experiment}\n" + EXPERIMENT_DEFAULTS[experiment], **overrides)


def apply_overrides(cfg: ExperimentConfig, *, workers: int | None = None, **overrides) -> ExperimentConfig:
    """cfg reparsed from its canonical text, with default_config's overrides:
    output_dir sets [experiment] output_dir, base_seed [measure] base_seed,
    dt [flow] dt and t_end [run] t_end, each checked like the rest."""
    # ensembles run as one coefficient block in one process; `workers` stays
    # a parameter so callers that pin the old default of 1 keep working
    if workers not in (None, 1):
        raise ConfigError(f"workers = {workers}: ensembles run in one process")
    return parse_config(serialize_config(cfg), **overrides)
