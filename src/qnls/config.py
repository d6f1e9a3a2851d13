"""Experiment configuration: one human-editable file = one experiment.

Grammar (INI-style, parsed strictly):

    [experiment]
    name = conservation          ; one of EXPERIMENTS
    output_dir = runs/conservation

    [grid]                        ; modes, the GridSpec's one field
    [flow]                        ; FlowParams fields (no cutoff: evolve's, per row)
    [measure]                     ; MeasureSpec fields (used where relevant)
    [run]                         ; horizon and ensemble size
    [params]                      ; experiment-specific knobs (verdict
                                  ; thresholds are constants, not keys)

Each experiment is one Experiment record in EXPERIMENTS: its [params] schema,
its defaults and its needs.  Each key's generic default fixes its type: [grid]
[flow] [measure] [run] take the dataclass fields', [params] its schema's.
Unset keys take the record's defaults over the generic ones.  Unknown sections
or keys are rejected (config drift guard), and so are settings the record's
needs reject: a run would fail partway through or pass having checked nothing.
Values: integers, finite floats (repr round-trip), booleans (true/false) and
comma-separated lists.  An override is the config line it sets (_OVERRIDES),
and it is checked as one.  serialize() emits a canonical form, so
parse(serialize(c)) == c and replayed configs diff cleanly.
"""

from __future__ import annotations

import configparser
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields

from .flow import RK4_IMAGINARY_LIMIT, FlowParams
from .measure import MIN_TAIL_SAMPLES, MeasureSpec, ks_critical_value
from .spectral import GridSpec

class ConfigError(ValueError):
    """Invalid experiment configuration (field-level diagnostics)."""


@dataclass(frozen=True)
class RunSettings:
    t_end: float = 1.0
    ensemble_size: int = 64


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    output_dir: str
    grid: GridSpec
    flow: FlowParams
    measure: MeasureSpec
    run: RunSettings
    params: dict = field(default_factory=dict)


# a schema maps key -> generic default, whose type is the key's: bool, int,
# float, or a tuple (a list of its first entry's type)
def _schema(cls, **defaults) -> dict:
    """{field: default} of a dataclass, in field order."""
    return {f.name: defaults.get(f.name, f.default) for f in fields(cls)}


@dataclass(frozen=True)
class Experiment:
    """One experiment: its [params] schema, needs(cfg) -> {need: met} of its
    parsed config, and its {section: {key: default}} over the generic ones."""

    params: dict
    needs: Callable[[ExperimentConfig], dict]
    defaults: dict = field(default_factory=dict)


# growth fits C on the states recorded at 0 < t <= FIT_FRACTION * t_end and
# checks it on the rest; KS_ALPHA is the significance level of each two-sample
# KS test; both here because the needs below read them
FIT_FRACTION = 0.1
KS_ALPHA = 0.05


# needs(cfg) maps what a run needs of its settings to whether it has it;
# without it a run fails partway through, passes having checked nothing, or
# takes RK4's own blow-up for the flow's. A stepping experiment needs its
# largest linear rate n^2 dt within RK4's limit on the imaginary axis
def _stable_rate(what: str, rate: float) -> dict:
    return {f"{what} <= 2*sqrt(2), RK4's stability limit": rate <= RK4_IMAGINARY_LIMIT}


# sample_mu draws modes |n| <= M onto the grid; at M = 0 every member is a
# constant, which every flow only turns in phase, so nothing is checked
def _draws_mu(cfg: ExperimentConfig) -> dict:
    return {"1 <= [measure] M <= [grid] modes": 1 <= cfg.measure.M <= cfg.grid.modes}


def _conservation_needs(cfg: ExperimentConfig) -> dict:
    # the drifts are relative to the values at t = 0, and a zero amplitude
    # leaves only the bias, whose momentum 4*pi*bias_mode*bias^2 needs both
    pm, bias = cfg.params, cfg.params["bias"] != 0
    return {
        "a nonzero initial momentum: amplitude != 0, or bias != 0 on a bias_mode != 0": pm["amplitude"] != 0
        or (bias and pm["bias_mode"] != 0),
        "|bias_mode| <= [grid] modes": not bias or abs(pm["bias_mode"]) <= cfg.grid.modes,
        "width > 0": pm["width"] > 0,
        "observer_stride >= 1": pm["observer_stride"] >= 1,
        **_stable_rate("modes^2 * dt", cfg.grid.modes**2 * cfg.flow.dt),
    }


def _plane_wave_order_needs(cfg: ExperimentConfig) -> dict:
    # the run takes round(t_end / dt) steps and compares at t_end; a
    # repeated dt makes the order 0 / 0, and so does a zero amplitude, whose
    # error is 0.0 at every dt
    dts = cfg.params["dt_list"]
    steps = [cfg.run.t_end / dt for dt in dts if dt > 0]
    return {
        "at least 2 distinct dt_list entries": len(dts) >= 2 and len(set(dts)) == len(dts),
        "dt_list entries that divide t_end into whole steps": len(steps) == len(dts)
        and all(abs(n - round(n)) <= 1e-9 * n for n in steps),
        "|mode| <= [grid] modes": abs(cfg.params["mode"]) <= cfg.grid.modes,
        "amplitude != 0": cfg.params["amplitude"] != 0,
        **_stable_rate("modes^2 * max(dt_list)", cfg.grid.modes**2 * max(dts, default=0.0)),
    }


def _continuity_needs(cfg: ExperimentConfig) -> dict:
    return {"n_fields >= 1": cfg.params["n_fields"] >= 1, "max_modes >= 4": cfg.params["max_modes"] >= 4}


def _linear_invariance_needs(cfg: ExperimentConfig) -> dict:
    # at t = 0 the ensemble meets itself, and a KS statistic is at most 1
    t, n = cfg.params["times"], cfg.run.ensemble_size
    return {
        "nonzero times entries": len(t) >= 1 and 0 not in t,
        "an ensemble_size whose KS critical value is below 1": ks_critical_value(n, n, KS_ALPHA) < 1,
        **_draws_mu(cfg),
    }


def _smoothing_sweep_needs(cfg: ExperimentConfig) -> dict:
    sweep = cfg.params["m_sweep"]
    ok = len(sweep) >= 2 and len(set(sweep)) == len(sweep) and all(1 <= M <= cfg.grid.modes for M in sweep)
    return {"at least 2 distinct m_sweep entries, in [1, [grid] modes]": ok, **_draws_mu(cfg)}


def _growth_needs(cfg: ExperimentConfig) -> dict:
    # a zero field never drifts, so the bound holds for any C; evolve
    # records the first state at observer_stride * dt
    pm = cfg.params
    first, window = pm["observer_stride"] * cfg.flow.dt, FIT_FRACTION * cfg.run.t_end
    return {
        "amplitude != 0": pm["amplitude"] != 0,
        "width > 0": pm["width"] > 0,
        "observer_stride >= 1": pm["observer_stride"] >= 1,
        f"a recorded state in the fit window: observer_stride * dt <= {FIT_FRACTION} * t_end": first <= window,
        **_stable_rate("modes^2 * dt", cfg.grid.modes**2 * cfg.flow.dt),
    }


def _transport_mc_needs(cfg: ExperimentConfig) -> dict:
    t = cfg.params["times"]
    return {
        f"ensemble_size >= {MIN_TAIL_SAMPLES}": cfg.run.ensemble_size >= MIN_TAIL_SAMPLES,
        # log_ratio_at_most_linear compares the first time with the last
        "at least 2 times, positive and distinct": len(t) >= 2 and min(t) > 0 and len(set(t)) == len(t),
        "0 < quantile < 1": 0 < cfg.params["quantile"] < 1,
        **_stable_rate("modes^2 * dt", cfg.grid.modes**2 * cfg.flow.dt),
        **_draws_mu(cfg),
    }


def _truncation_convergence_needs(cfg: ExperimentConfig) -> dict:
    pm = cfg.params
    m, fm, top, with_flow = pm["m_list"], pm["flow_m_list"], pm["flow_modes"], pm["with_flow"]
    # the flow errors are checked in list order, which must run up in M
    up = all(a < b for a, b in zip(fm, fm[1:]))
    flow_ok = not with_flow or (top >= 1 and len(fm) >= 2 and up and all(0 <= M <= top for M in fm))
    # a zero field has errors 0.0, and exp(-|n| / decay) is NaN or blows up at decay <= 0
    field_ok = not with_flow or (pm["flow_amplitude"] != 0 and pm["flow_decay"] > 0)
    return {
        "a strictly increasing m_list in [0, [grid] modes]": len(m) >= 1
        and all(a < b for a, b in zip(m, m[1:]))
        and all(0 <= M <= cfg.grid.modes for M in m),
        "flow_modes >= 1 and at least 2 strictly increasing flow_m_list entries in [0, flow_modes]": flow_ok,
        "flow_amplitude != 0 and flow_decay > 0": field_ok,
        **_stable_rate("flow_modes^2 * dt", top**2 * cfg.flow.dt if with_flow else 0.0),
        **_draws_mu(cfg),
    }


def _focusing_local_needs(cfg: ExperimentConfig) -> dict:
    # the local times are checked in list order, which must run up in amplitude
    a = cfg.params["amplitudes"]
    up = all(x < y for x, y in zip(a, a[1:]))
    return {
        "amplitudes, positive and strictly increasing": len(a) >= 1 and min(a) > 0 and up,
        **_stable_rate("modes^2 * dt", cfg.grid.modes**2 * cfg.flow.dt),
    }


# one record per experiment, in CLI order: [params] schema, needs, defaults
EXPERIMENTS: dict[str, Experiment] = {
    "conservation": Experiment(
        {"seed": 42, "amplitude": 0.2, "width": 4.0, "bias": 0.25, "bias_mode": 2, "observer_stride": 10},
        _conservation_needs,
    ),
    "plane_wave_order": Experiment(
        {"mode": 2, "amplitude": 1.0, "dt_list": (4e-3, 2e-3, 1e-3, 5e-4)},
        _plane_wave_order_needs,
        {"grid": {"modes": 8}, "run": {"t_end": 0.5}},
    ),
    "continuity": Experiment(
        {"n_fields": 1000, "max_modes": 64, "seed": 7},
        _continuity_needs,
        {"grid": {"modes": 64}},
    ),
    "linear_invariance": Experiment(
        {"times": (0.1, 1.0, math.pi, 1.0 + math.sqrt(2.0))},
        _linear_invariance_needs,
        {"run": {"ensemble_size": 1000}},
    ),
    "smoothing_sweep": Experiment(
        {"m_sweep": (16, 32, 64, 128), "perturbation": 0.1},
        _smoothing_sweep_needs,
        {"grid": {"modes": 128}, "measure": {"M": 128}},
    ),
    "growth": Experiment(
        {"seed": 42, "amplitude": 0.2, "width": 4.0, "observer_stride": 100},
        _growth_needs,
        {"run": {"t_end": 200.0}},
    ),
    "transport_mc": Experiment(
        {"times": (0.25, 0.5), "quantile": 0.9},
        _transport_mc_needs,
        {"run": {"ensemble_size": 256, "t_end": 0.5}},
    ),
    "truncation_convergence": Experiment(
        {
            "m_list": (16, 32, 64, 128, 256), "with_flow": True, "flow_modes": 128, "flow_m_list": (8, 16, 32, 64),
            "flow_amplitude": 0.4, "flow_decay": 8.0, "flow_seed": 5,
        },
        _truncation_convergence_needs,
        {"grid": {"modes": 256}, "flow": {"dt": 1e-4}, "measure": {"M": 256}, "run": {"ensemble_size": 4}},
    ),
    "focusing_local": Experiment(
        {"amplitudes": (1.0, 1.6, 2.0), "trip_amplitude": 3.0},
        _focusing_local_needs,
        {"flow": {"sigma": -1, "dt": 0.0005}, "run": {"t_end": 0.5}},
    ),
}

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


def _parse_value(default, raw: str):
    """`raw` read as a value of `default`'s type."""
    raw = raw.strip()
    if isinstance(default, tuple):
        return tuple(_parse_value(default[0], x) for x in raw.split(",") if x.strip())
    if isinstance(default, bool):
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if isinstance(default, int):
        return int(raw)
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _format_value(default, value) -> str:
    """`value` written as a value of `default`'s type."""
    if isinstance(default, tuple):
        return ", ".join(_format_value(default[0], v) for v in value)
    if isinstance(default, bool):
        return "true" if value else "false"
    if isinstance(default, float):
        return repr(float(value))
    return str(value)


def _read_section(cp, name: str, schema: dict, overlay: dict) -> dict:
    """Section `name` over the experiment's defaults (`overlay` over `schema`)."""
    out = {**schema, **overlay}
    if not cp.has_section(name):
        return out
    for key in cp.options(name):
        if key not in schema:
            raise ConfigError(f"[{name}] unknown key {key!r}")
        try:
            out[key] = _parse_value(schema[key], cp.get(name, key))
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key}: {exc}") from None
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
        raise ConfigError(f"unknown experiment {name!r}; choose from {tuple(EXPERIMENTS)}")
    output_dir = cp.get("experiment", "output_dir", fallback=f"runs/{name}").strip()
    if not output_dir:  # an empty path is the working directory
        raise ConfigError("[experiment] output_dir must not be empty")

    experiment = EXPERIMENTS[name]
    schemas = {**_SECTIONS, "params": experiment.params}
    for section in cp.sections():
        if section not in ("experiment", *schemas):
            raise ConfigError(f"unknown section [{section}]")
    kw = {s: _read_section(cp, s, schema, experiment.defaults.get(s, {})) for s, schema in schemas.items()}

    try:
        grid = GridSpec(**kw["grid"])
        if grid.modes < 1:  # GridSpec(0), the constants, is a band, not a grid to run on
            raise ConfigError(f"[grid] needs modes >= 1, got {grid.modes}")
        flow = FlowParams(**kw["flow"])
        measure = MeasureSpec(**kw["measure"])
        run = RunSettings(**kw["run"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if run.t_end <= 0 or run.ensemble_size < 1:
        raise ConfigError("[run] needs t_end > 0 and ensemble_size >= 1")
    cfg = ExperimentConfig(name, output_dir, grid, flow, measure, run, kw["params"])
    unmet = [need for need, met in experiment.needs(cfg).items() if not met]
    if unmet:
        raise ConfigError(f"{name} needs " + "; ".join(unmet))
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = ["[experiment]", f"name = {cfg.experiment}", f"output_dir = {cfg.output_dir}"]
    for section, schema in {**_SECTIONS, "params": EXPERIMENTS[cfg.experiment].params}.items():
        values = cfg.params if section == "params" else vars(getattr(cfg, section))
        lines += ["", f"[{section}]", *(f"{key} = {_format_value(d, values[key])}" for key, d in schema.items())]
    return "\n".join(lines) + "\n"


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    """Default configuration for an experiment: its name line alone. Each
    keyword override sets its config line, checked like the rest: output_dir
    sets [experiment] output_dir, base_seed [measure] base_seed, dt [flow] dt
    and t_end [run] t_end."""
    return parse_config(f"[experiment]\nname = {experiment}\n", **overrides)


def apply_overrides(cfg: ExperimentConfig, *, workers: int | None = None, **overrides) -> ExperimentConfig:
    """cfg reparsed from its canonical text, with default_config's overrides:
    output_dir sets [experiment] output_dir, base_seed [measure] base_seed,
    dt [flow] dt and t_end [run] t_end, each checked like the rest."""
    # ensembles run as one coefficient block in one process; `workers` stays
    # a parameter so callers that pin the old default of 1 keep working
    if workers not in (None, 1):
        raise ConfigError(f"workers = {workers}: ensembles run in one process")
    return parse_config(serialize_config(cfg), **overrides)
