"""Experiment implementations: reproducible studies with manifests.

Each experiment consumes a validated ExperimentConfig, writes plot-ready CSV
(and JSON-lines) data files plus a manifest.json carrying the config echo,
per-file checksums and pass/fail verdicts with the measured statistics.
Replaying a config reproduces the data files bit-for-bit; timestamps live
only in the manifest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, serialize_config
from .densities import residual_rows, scale_rows
from .energy import R2_TERMS, breakdown_rows, corrected_rate, projected_rates, r2_truncation_curve, smoothing_bound_rows
from .flow import FULL, BlowUpError, evolve, evolve_block, hamiltonian_rows, linear_flow_rows, momentum_rows, step
from .measure import (
    derive_seed,
    ks_critical_value,
    ks_statistic,
    observables_rows,
    sample_mu,
    tail_ratio,
    write_ensemble,
    OBSERVABLE_NAMES,
)
from .spectral import FourierField, GridSpec, field_from_modes, sobolev_sq_rows

TRAJECTORY_COLUMNS = (
    "time",
    "mass",
    "momentum",
    "hamiltonian",
    "h1_sq",
    "h2_sq",
    "e2",
    "f2",
    "bound",
)


@dataclass
class Verdict:
    name: str
    passed: bool
    stats: dict = field(default_factory=dict)


@dataclass
class RunManifest:
    experiment: str
    version: str
    started: str
    finished: str
    config_text: str
    files: dict[str, str]
    verdicts: list[Verdict]
    passed: bool
    error: str | None = None


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def smooth_random_field(
    grid: GridSpec,
    seed: int,
    amplitude: float,
    width: float,
    bias: float = 0.0,
    bias_mode: int = 0,
) -> np.ndarray:
    """Coefficient row on `grid` of random data with a Gaussian spectral
    envelope e^{-(n/width)^2}.

    A deterministic bias on one mode keeps the momentum away from zero so
    relative-drift verdicts are meaningful.
    """
    rng = np.random.default_rng(seed)
    n = grid.n
    c = amplitude * (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size))
    c = c * np.exp(-((n / width) ** 2))
    if bias:
        c[grid.modes + bias_mode] += bias
    return c


def _write_trajectory(path: Path, times: np.ndarray, c: np.ndarray, cfg: ExperimentConfig) -> dict[str, np.ndarray]:
    """Write the TRAJECTORY_COLUMNS of each state c[k] at times[k] as CSV and
    return them, with the rest of its breakdown_rows, as name -> (K,) array."""
    grid, p = cfg.grid, cfg.flow
    columns = {
        "time": times,
        "mass": sobolev_sq_rows(c, grid, 0.0),
        "momentum": momentum_rows(c, grid),
        "hamiltonian": hamiltonian_rows(c, grid, p.sigma),
        "h1_sq": sobolev_sq_rows(c, grid, 1.0),
        **breakdown_rows(c, grid, p),
    }
    _write_csv(path, TRAJECTORY_COLUMNS, zip(*(columns[k].tolist() for k in TRAJECTORY_COLUMNS)))
    return columns


def _write_breakdowns(path: Path, columns: dict[str, np.ndarray]) -> None:
    """One JSON line per state: its time and its R_2 terms."""
    names = [name for name, _, _ in R2_TERMS]
    with open(path, "w") as fh:
        for t, *terms in zip(columns["time"].tolist(), *(columns[name].tolist() for name in names)):
            fh.write(json.dumps({"time": t, "r2_terms": dict(zip(names, terms))}) + "\n")


# ----------------------------------------------------------------- experiments


def run_conservation(cfg: ExperimentConfig, out: Path):
    pm = cfg.params
    u0 = smooth_random_field(
        cfg.grid, pm["seed"], pm["amplitude"], pm["width"], pm["bias"], pm["bias_mode"]
    )
    times, states, blowup_time = evolve(u0, cfg.grid, cfg.flow, cfg.run.t_end, stride=pm["observer_stride"])
    columns = _write_trajectory(out / "trajectory.csv", times, states, cfg)
    _write_breakdowns(out / "breakdowns.jsonl", columns)

    drifts = {}
    for k in ("mass", "momentum", "hamiltonian"):
        first, last = columns[k][[0, -1]].tolist()
        drifts[k] = abs(last - first) / abs(first)
    tol = pm["drift_tol"]
    stats = {"tolerance": tol, **{f"drift_{k}": v for k, v in drifts.items()}}
    if blowup_time is not None:  # the drifts cover only [0, blowup_time]
        stats["blowup_time"] = blowup_time
    verdicts = [
        Verdict(
            "conserved_quantities_drift",
            blowup_time is None and all(v < tol for v in drifts.values()),
            stats,
        )
    ]
    return {"trajectory.csv": out / "trajectory.csv", "breakdowns.jsonl": out / "breakdowns.jsonl"}, verdicts


def run_plane_wave_order(cfg: ExperimentConfig, out: Path):
    pm = cfg.params
    n, amp = pm["mode"], pm["amplitude"]
    # the one experiment that steps one FourierField with flow.step, which the
    # benchmark's tracer patches as experiments.step
    u0 = FourierField(cfg.grid, field_from_modes(cfg.grid, {n: amp}))
    t_end = cfg.run.t_end
    freq = n * n + cfg.flow.sigma * abs(amp) ** 4
    exact = amp * np.exp(-1j * freq * t_end)
    errors = []
    for dt in pm["dt_list"]:
        p = replace(cfg.flow, dt=dt)
        u = u0
        for k in range(int(round(t_end / dt))):
            try:
                u = step(u, p)
            except BlowUpError:  # the errors and orders need every dt to reach t_end
                return {}, [Verdict("rk4_order", False, {"dt": dt, "blowup_time": k * dt})]
        errors.append(abs(u.coeffs[cfg.grid.modes + n] - exact))
    orders = [
        float(np.log(errors[i] / errors[i + 1]) / np.log(pm["dt_list"][i] / pm["dt_list"][i + 1]))
        for i in range(len(errors) - 1)
    ]
    rows = [
        [pm["dt_list"][i], errors[i], orders[i - 1] if i > 0 else float("nan")]
        for i in range(len(errors))
    ]
    _write_csv(out / "orders.csv", ("dt", "error", "order"), rows)
    verdicts = [
        Verdict(
            "rk4_order",
            all(pm["min_order"] <= o <= pm["max_order"] for o in orders),
            {"orders": orders, "min_order": pm["min_order"], "max_order": pm["max_order"]},
        )
    ]
    return {"orders.csv": out / "orders.csv"}, verdicts


def run_continuity(cfg: ExperimentConfig, out: Path):
    pm = cfg.params
    rng = np.random.default_rng(pm["seed"])
    groups: dict[int, list] = {}  # mode count -> (field index, coefficients), one block each
    for i in range(pm["n_fields"]):
        modes = int(rng.integers(4, pm["max_modes"] + 1))
        n = GridSpec(modes=modes).n
        c = (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size)) / (1.0 + (n / 8.0) ** 2)
        groups.setdefault(modes, []).append((i, c))
    rows = [None] * pm["n_fields"]
    for modes, members in groups.items():
        grid = GridSpec(modes=modes)
        c = np.array([row for _, row in members])
        r = {name: v.tolist() for name, v in residual_rows(c, grid).items()}
        e_scale, c_scale = scale_rows(c, grid)
        for k, (i, _) in enumerate(members):
            rows[i] = [i, modes, r["eleele"][k] / e_scale[k], abs(r["j0"][k]) / (1.0 + c_scale[k])]
            rows[i] += [r[name][k] / c_scale[k] for name in ("mass_p", "mom_p", "mass_m", "mom_m")]
    _write_csv(
        out / "residuals.csv",
        ("field", "modes", "eleele", "j0", "mass_defoc", "momentum_defoc", "mass_foc", "momentum_foc"),
        rows,
    )
    # running maxima from 0.0, in field order
    names = ("eleele", "j0", "mass_p", "mom_p", "mass_m", "mom_m")
    worst = {name: max([0.0, *col]) for name, col in zip(names, list(zip(*rows))[2:])}
    laws = {k: worst[k] for k in names[2:]}
    verdicts = [
        Verdict("eleele_identity", worst["eleele"] < pm["eleele_tol"], {"worst": worst["eleele"], "tol": pm["eleele_tol"]}),
        Verdict("j0_vanishes", worst["j0"] < pm["j0_tol"], {"worst": worst["j0"], "tol": pm["j0_tol"]}),
        Verdict("continuity_laws", max(laws.values()) < pm["continuity_tol"], laws),
    ]
    return {"residuals.csv": out / "residuals.csv"}, verdicts


def run_linear_invariance(cfg: ExperimentConfig, out: Path):
    pm = cfg.params
    times = list(pm["times"])
    n_samp = cfg.run.ensemble_size
    c = sample_mu(cfg.measure, range(n_samp), cfg.grid)
    sigma = cfg.flow.sigma
    columns = {0.0: observables_rows(c, cfg.grid, sigma)}
    columns.update((t, observables_rows(linear_flow_rows(c, cfg.grid, t), cfg.grid, sigma)) for t in times)
    crit = ks_critical_value(n_samp, n_samp, pm["alpha"])
    rows = []
    all_pass = True
    for name in OBSERVABLE_NAMES:
        for t in times:
            stat = ks_statistic(columns[0.0][name], columns[t][name])
            ok = stat < crit
            all_pass = all_pass and ok
            rows.append([name, t, stat, crit, ok])
    _write_csv(out / "ks.csv", ("observable", "time", "ks", "critical", "pass"), rows)
    verdicts = [
        Verdict(
            "linear_flow_invariance",
            all_pass,
            {"critical": crit, "samples": n_samp, "times": times},
        )
    ]
    return {"ks.csv": out / "ks.csv"}, verdicts


def run_smoothing_sweep(cfg: ExperimentConfig, out: Path):
    pm = cfg.params
    m0 = pm["m0"]
    sweep = list(pm["m_sweep"])
    grid = cfg.grid
    term_names = [name for name, _, _ in R2_TERMS]
    scale_sets = {"shipped": None}
    for name in term_names:
        scale_sets[name] = {name: 1.0 + pm["perturbation"]}

    c = sample_mu(cfg.measure, range(cfg.run.ensemble_size), grid)
    # max over the members of each rate's |rate| / bound, per M
    max_ratio = {k: [] for k in scale_sets}
    unc = []
    for M in sweep:
        w, rate, raw = projected_rates(c, grid, replace(cfg.flow, cutoff=M))
        b = smoothing_bound_rows(w, grid, m0)
        unc.append(float(np.max(np.abs(rate) / b)))
        for key, overrides in scale_sets.items():
            r = np.abs(corrected_rate(rate, raw, cfg.flow.sigma, overrides)) / b
            max_ratio[key].append(float(np.max(r)))

    ratios = max_ratio["shipped"]
    _write_csv(
        out / "sweep.csv",
        ("M", "max_ratio", "max_uncorrected_ratio"),
        [[M, r, u_] for M, r, u_ in zip(sweep, ratios, unc)],
    )
    variation = max(ratios) / min(ratios)
    slope = float(np.polyfit(np.log2(sweep), np.log2(unc), 1)[0])

    perturb_rows = []
    perturb_breaks = {}
    for name in term_names:
        vals = max_ratio[name]
        v_ratio = max(vals) / min(vals)
        perturb_breaks[name] = v_ratio >= pm["uniformity_factor"]
        perturb_rows.append([name, 1.0 + pm["perturbation"], v_ratio, perturb_breaks[name]])
    _write_csv(
        out / "perturb.csv", ("term", "factor", "max_over_min", "breaks_uniformity"), perturb_rows
    )

    verdicts = [
        Verdict(
            "f2_ratio_cutoff_uniform",
            variation < pm["uniformity_factor"],
            {"max_over_min": variation, "factor": pm["uniformity_factor"], "ratios": ratios},
        ),
        Verdict(
            "uncorrected_ratio_slope",
            slope >= pm["slope_min"],
            {"slope": slope, "slope_min": pm["slope_min"], "uncorrected": unc},
        ),
        Verdict(
            "perturbation_breaks_uniformity",
            all(perturb_breaks.values()),
            {"breaks": perturb_breaks},
        ),
    ]
    return {"sweep.csv": out / "sweep.csv", "perturb.csv": out / "perturb.csv"}, verdicts


def run_growth(cfg: ExperimentConfig, out: Path):
    pm = cfg.params
    u0 = smooth_random_field(cfg.grid, pm["seed"], pm["amplitude"], pm["width"])
    times, states, blowup_time = evolve(u0, cfg.grid, cfg.flow, cfg.run.t_end, stride=pm["observer_stride"])
    columns = _write_trajectory(out / "growth.csv", times, states, cfg)
    if blowup_time is not None:  # the fits need the whole horizon
        return {"growth.csv": out / "growth.csv"}, [
            Verdict("e2_linear_bound", False, {"blowup_time": blowup_time})
        ]

    e2s, h2s = columns["e2"], columns["h2_sq"]
    # fitted exponent of ||u||_{H^2} ~ t^alpha on the upper half of the run
    upper = times > times[-1] / 2
    alpha = float(
        np.polyfit(np.log(times[upper]), 0.5 * np.log(h2s[upper]), 1)[0]
    )
    # linear bound: C fitted on the first decile, checked on the rest
    head = (times > 0) & (times <= pm["fit_fraction"] * times[-1])
    tail = times > pm["fit_fraction"] * times[-1]
    drift = np.abs(e2s - e2s[0])
    c_fit = max(float(np.max(drift[head] / times[head])), 1e-12)
    ok = bool(np.all(drift[tail] <= pm["slack"] * c_fit * times[tail]))
    verdicts = [
        Verdict(
            "e2_linear_bound",
            ok,
            {"C_fit": c_fit, "slack": pm["slack"], "h2_exponent": alpha},
        )
    ]
    return {"growth.csv": out / "growth.csv"}, verdicts


def run_transport_mc(cfg: ExperimentConfig, out: Path):
    pm = cfg.params
    times = sorted(pm["times"])
    sigma = cfg.flow.sigma
    n_members = cfg.run.ensemble_size
    seeds = [derive_seed(cfg.measure.base_seed, i) for i in range(n_members)]
    c = sample_mu(cfg.measure, range(n_members), cfg.grid)
    live = np.ones(n_members, dtype=bool)
    initial = observables_rows(c, cfg.grid, sigma)
    write_ensemble(out / "ensemble.jsonl", seeds, live, initial)
    files = {"ensemble.jsonl": out / "ensemble.jsonl"}
    # after[t]: the observables at checkpoint t, +inf for a member that has
    # tripped the guard (at that checkpoint and every later one)
    after = {}
    t_prev = 0.0
    for k, t in enumerate(times):
        c, live, _ = evolve_block(c, live, cfg.grid, cfg.flow, t - t_prev)
        after[t] = {}
        # of the live rows only: a tripped member's frozen row can overflow
        for name, v in observables_rows(c[live], cfg.grid, sigma).items():
            after[t][name] = np.full(n_members, np.inf)
            after[t][name][live] = v
        write_ensemble(out / f"transported_{k}.jsonl", seeds, live, after[t])
        files[f"transported_{k}.jsonl"] = out / f"transported_{k}.jsonl"
        t_prev = t

    watch = ("u0_sq", "h1_sq")
    rows = []
    ratios: dict[str, dict[float, float]] = {k: {} for k in watch}
    for name in watch:
        before = initial[name]
        thr = float(np.quantile(before, pm["quantile"]))
        for t in times:
            r = tail_ratio(before, after[t][name], thr)
            ratios[name][t] = r
            rows.append(
                [name, t, thr, float(np.mean(before > thr)), float(np.mean(after[t][name] > thr)), r]
            )
    _write_csv(
        out / "tails.csv",
        ("observable", "time", "threshold", "frac_before", "frac_after", "ratio"),
        rows,
    )
    files["tails.csv"] = out / "tails.csv"

    finite = all(np.isfinite(r) for per in ratios.values() for r in per.values())
    linear_ok = True
    t1, t2 = times[0], times[-1]
    for name in watch:
        log1 = np.log(max(ratios[name][t1], 1e-300))
        log2_ = np.log(max(ratios[name][t2], 1e-300))
        if log2_ > (t2 / t1) * max(log1, 0.0) + pm["log_slack"]:
            linear_ok = False
    verdicts = [
        Verdict("tail_ratios_finite", bool(finite), {k: ratios[k] for k in watch}),
        Verdict(
            "log_ratio_at_most_linear",
            bool(finite and linear_ok),
            {"log_slack": pm["log_slack"]},
        ),
    ]
    return files, verdicts


def run_truncation_convergence(cfg: ExperimentConfig, out: Path):
    pm = cfg.params
    files = {}
    verdicts = []

    m_list = list(pm["m_list"])
    rows = []
    mono_all, final_all = True, True
    for idx, c in enumerate(sample_mu(cfg.measure, range(cfg.run.ensemble_size), cfg.grid)):
        curve = r2_truncation_curve(c, cfg.grid, m_list, cfg.flow.sigma)
        for M, d in zip(m_list, curve):
            rows.append([idx, M, d])
        mono_all = mono_all and bool(np.all(np.diff(curve) <= 0.0))
        final_all = final_all and bool(curve[-1] < pm["final_fraction"] * curve[0])
    _write_csv(out / "r2_curve.csv", ("sample", "M", "delta_r2"), rows)
    files["r2_curve.csv"] = out / "r2_curve.csv"
    verdicts.append(
        Verdict(
            "r2_truncation_decreasing",
            mono_all and final_all,
            {"monotone": mono_all, "final_small": final_all, "samples": cfg.run.ensemble_size},
        )
    )

    if pm["with_flow"]:
        grid = GridSpec(modes=pm["flow_modes"])
        n = grid.n
        rng = np.random.default_rng(pm["flow_seed"])
        c = pm["flow_amplitude"] * (
            rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size)
        ) * np.exp(-np.abs(n) / pm["flow_decay"])
        t_end = cfg.run.t_end
        # row 0 is the full flow, the reference of the Galerkin rows after it
        cutoffs = [FULL] + [int(M) for M in pm["flow_m_list"]]
        flows, _, _ = evolve_block(
            np.tile(c, (len(cutoffs), 1)),
            np.ones(len(cutoffs), dtype=bool),
            grid,
            cfg.flow,
            t_end,
            cutoffs,
        )
        # Python float square roots: numpy's array ** rounds some differently
        errs = [e**0.5 for e in sobolev_sq_rows(flows[1:] - flows[0], grid, 1.75).tolist()]
        _write_csv(
            out / "flow_convergence.csv",
            ("M", "h74_error"),
            [[M, e] for M, e in zip(pm["flow_m_list"], errs)],
        )
        files["flow_convergence.csv"] = out / "flow_convergence.csv"
        strict = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        verdicts.append(
            Verdict("flow_convergence_decreasing", strict, {"errors": errs, "t_end": t_end})
        )
    return files, verdicts


def run_focusing_local(cfg: ExperimentConfig, out: Path):
    pm = cfg.params
    # the last row is the large-amplitude control: the guard must trip,
    # reported as expected
    amps = list(pm["amplitudes"]) + [pm["trip_amplitude"]]
    c0 = np.stack([field_from_modes(cfg.grid, {1: amp, -1: amp}) for amp in amps])
    t_end = cfg.run.t_end
    _, live, trip_times = evolve_block(c0, np.ones(len(amps), dtype=bool), cfg.grid, cfg.flow, t_end)
    rows = []
    for amp, r, ok, T in zip(amps, sobolev_sq_rows(c0, cfg.grid, 1.75).tolist(), live, trip_times):
        rows.append([amp, r**0.5, t_end if ok else float(T), not ok])
    _write_csv(out / "focusing.csv", ("amplitude", "R_h74", "T_achieved", "tripped"), rows)

    achieved, (amp, R, _, control_tripped) = rows[:-1], rows[-1]
    times = [T for _, _, T, _ in achieved]
    positive = all(T > 0 for T in times)
    non_increasing = all(times[i] >= times[i + 1] for i in range(len(times) - 1))
    verdicts = [
        Verdict(
            "local_time_positive_nonincreasing",
            positive and non_increasing,
            {"R": [r for _, r, _, _ in achieved], "T": times},
        ),
        Verdict(
            "large_amplitude_trips_guard",
            bool(control_tripped),
            {"trip_amplitude": amp, "R": R},
        ),
    ]
    return {"focusing.csv": out / "focusing.csv"}, verdicts


_RUNNERS = {
    "conservation": run_conservation,
    "plane_wave_order": run_plane_wave_order,
    "continuity": run_continuity,
    "linear_invariance": run_linear_invariance,
    "smoothing_sweep": run_smoothing_sweep,
    "growth": run_growth,
    "transport_mc": run_transport_mc,
    "truncation_convergence": run_truncation_convergence,
    "focusing_local": run_focusing_local,
}


def run(cfg: ExperimentConfig) -> RunManifest:
    """Run one experiment: write data files and manifest.json under output_dir."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    config_text = serialize_config(cfg)
    (out / "config.ini").write_text(config_text)
    files: dict[str, Path] = {"config.ini": out / "config.ini"}
    verdicts: list[Verdict] = []
    error = None
    try:
        produced, verdicts = _RUNNERS[cfg.experiment](cfg, out)
        files.update(produced)
    except Exception as exc:  # manifest is written even on failure
        error = f"{type(exc).__name__}: {exc}"
    manifest = RunManifest(
        experiment=cfg.experiment,
        version=__version__,
        started=started,
        finished=datetime.now(timezone.utc).isoformat(),
        config_text=config_text,
        files={name: _sha256(path) for name, path in sorted(files.items())},
        verdicts=verdicts,
        passed=error is None and all(v.passed for v in verdicts),
        error=error,
    )
    (out / "manifest.json").write_text(json.dumps(asdict(manifest), indent=2))
    return manifest


def emit_plots(run_dir) -> Path:
    """Write a gnuplot stub next to the run's CSV files (no rendering dependency)."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {run_dir}")
    try:
        files = json.loads(manifest_path.read_text())["files"]
        if not isinstance(files, dict):
            raise TypeError(f"files must map names to checksums, got {type(files).__name__}")
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{manifest_path} is not a run manifest: {exc!r}") from exc
    missing = [
        name
        for name in files
        if not (run_dir / name).exists()
    ]
    if missing:
        raise FileNotFoundError(f"missing data files: {missing}")
    csvs = [name for name in files if name.endswith(".csv")]
    lines = [
        "# gnuplot stub; data columns are documented in the CSV headers",
        "set datafile separator ','",
        "set key autotitle columnhead",
    ]
    for name in csvs:
        lines.append(f"# plot '{name}' using 1:2 with lines")
    path = run_dir / "plots.gp"
    path.write_text("\n".join(lines) + "\n")
    return path
