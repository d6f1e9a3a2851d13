"""Harness: manifests, determinism, CLI wiring.

Full-scale experiment verdicts live in test_acceptance.py; here the runs are
scaled down to exercise the machinery.
"""

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from qnls import FlowParams, FourierField, GridSpec, spectral
from qnls.cli import main
from qnls.config import apply_overrides, default_config, parse_config
from qnls.densities import continuity_residuals, eleele_residual, j0_diag
from qnls.experiments import DRIFT_TOL, KS_ALPHA, emit_plots, run
from qnls.flow import linear_flow_rows
from qnls.measure import (
    OBSERVABLE_NAMES,
    derive_seed,
    ks_critical_value,
    ks_statistic,
    observables,
    observables_rows,
    sample_mu,
)
from qnls.energy import r2_rows
from qnls.spectral import TWO_PI, chunk_rows, synthesize

from conftest import step_loop
from oracles import r2_truncation_curve_masked, sample_field, sobolev_norm_sq


def observables_in(path):
    """The observables of each record in an ensemble file, in file order."""
    return [json.loads(line)["observables"] for line in path.read_text().splitlines()]


def tiny_conservation(tmp_path, **kw):
    cfg = default_config("conservation", output_dir=str(tmp_path / "run"), **kw)
    text = (
        "[experiment]\nname = conservation\n"
        f"output_dir = {tmp_path / 'run'}\n"
        "[grid]\nmodes = 16\n"
        "[run]\nt_end = 0.05\n"
        "[params]\nobserver_stride = 10\n"
    )
    return parse_config(text)


def transport_cfg(tmp_path, seed_offset=0):
    """transport_mc with 100 members (the least tail_ratio accepts) to t = 0.1."""
    cfg = default_config("transport_mc", output_dir=str(tmp_path / "tr"))
    cfg = apply_overrides(cfg, base_seed=cfg.measure.base_seed + seed_offset)
    return replace(
        cfg,
        run=replace(cfg.run, ensemble_size=100),
        params={**cfg.params, "times": (0.05, 0.1)},
    )


class TestRun:
    def test_manifest_written(self, tmp_path):
        manifest = run(tiny_conservation(tmp_path))
        out = tmp_path / "run"
        assert (out / "manifest.json").exists()
        assert (out / "trajectory.csv").exists()
        assert (out / "config.ini").exists()
        assert manifest.passed
        loaded = json.loads((out / "manifest.json").read_text())
        assert loaded["files"] == manifest.files

    def test_trajectory_columns(self, tmp_path):
        run(tiny_conservation(tmp_path))
        header = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()[0]
        assert header == "time,mass,momentum,hamiltonian,h1_sq,h2_sq,e2,f2,bound"

    def test_replay_bit_identical(self, tmp_path):
        m1 = run(tiny_conservation(tmp_path))
        m2 = run(tiny_conservation(tmp_path))
        assert m1.files == m2.files

    def test_truncation_convergence_takes_cutoff_0(self, tmp_path):
        # P_0 u is the constant u_0, taken on GridSpec(0): R_2 keeps only
        # (4/15) int N^5 = (4/15) 2 pi |u_0|^10 there
        text = (
            "[experiment]\nname = truncation_convergence\n"
            f"output_dir = {tmp_path / 'tc'}\n"
            "[grid]\nmodes = 16\n[measure]\nM = 16\n[run]\nensemble_size = 3\n"
            "[params]\nm_list = 0, 4, 16\nwith_flow = false\n"
        )
        cfg = parse_config(text)
        assert run(cfg).error is None
        rows = [line.split(",") for line in (tmp_path / "tc" / "r2_curve.csv").read_text().splitlines()[1:]]
        assert [(int(i), int(M)) for i, M, _ in rows] == [(i, M) for i in range(3) for M in (0, 4, 16)]
        for i, c in enumerate(sample_mu(cfg.measure, range(3), cfg.grid)):
            got = [float(d) for _, _, d in rows[3 * i : 3 * i + 3]]
            whole = r2_rows(c, cfg.grid, cfg.flow.sigma)[0]
            assert got[0] == pytest.approx(abs(4.0 / 15.0 * TWO_PI * abs(c[16]) ** 10 - whole), rel=1e-12)
            assert got == pytest.approx(list(r2_truncation_curve_masked(c, cfg.grid, [0, 4, 16], cfg.flow.sigma)), rel=1e-11)
            assert got[2] == 0.0

    def test_linear_invariance_matches_the_per_member_loop(self, tmp_path):
        # one member past the first row chunk of observables_rows
        cfg = default_config("linear_invariance", output_dir=str(tmp_path / "li"))
        size = chunk_rows(cfg.grid.pad_for_degree(10)) + 1
        cfg = replace(cfg, run=replace(cfg.run, ensemble_size=size))
        assert run(cfg).error is None
        members = [sample_field(cfg.measure, i, cfg.grid) for i in range(size)]
        before = [observables(u) for u in members]
        after = {
            t: [observables(FourierField(u.grid, linear_flow_rows(u.coeffs, u.grid, t))) for u in members]
            for t in cfg.params["times"]
        }
        crit = ks_critical_value(size, size, KS_ALPHA)
        lines = ["observable,time,ks,critical,pass"]
        for name in OBSERVABLE_NAMES:
            for t in cfg.params["times"]:
                stat = ks_statistic([o[name] for o in before], [o[name] for o in after[t]])
                lines.append(f"{name},{t!r},{stat!r},{crit!r},{'true' if stat < crit else 'false'}")
        assert (tmp_path / "li" / "ks.csv").read_text() == "\n".join(lines) + "\n"

    def test_linear_invariance_reads_the_flow_sigma(self, tmp_path):
        # e2 carries sigma in R_2; the KS rows must be those of the file's sign
        cfg = parse_config(
            f"[experiment]\nname = linear_invariance\noutput_dir = {tmp_path / 'li'}\n"
            "[flow]\nsigma = -1\n[run]\nensemble_size = 200\n"
        )
        assert run(cfg).error is None
        c = sample_mu(cfg.measure, range(200), cfg.grid)
        times = cfg.params["times"]
        crit = ks_critical_value(200, 200, KS_ALPHA)

        def ks_rows(sigma):
            before = observables_rows(c, cfg.grid, sigma)
            after = {t: observables_rows(linear_flow_rows(c, cfg.grid, t), cfg.grid, sigma) for t in times}
            rows = []
            for name in OBSERVABLE_NAMES:
                for t in times:
                    stat = ks_statistic(before[name], after[t][name])
                    rows.append(f"{name},{t!r},{stat!r},{crit!r},{'true' if stat < crit else 'false'}")
            return rows

        lines = (tmp_path / "li" / "ks.csv").read_text().splitlines()
        assert lines == ["observable,time,ks,critical,pass", *ks_rows(-1)]
        assert lines[1:] != ks_rows(1)  # the sign shows in the e2 rows

    def test_continuity_matches_the_per_field_loop(self, tmp_path):
        cfg = default_config("continuity", output_dir=str(tmp_path / "ct"))
        cfg = replace(cfg, params={**cfg.params, "n_fields": 40, "max_modes": 9})
        assert run(cfg).error is None
        rng = np.random.default_rng(cfg.params["seed"])
        lines = ["field,modes,eleele,j0,mass_defoc,momentum_defoc,mass_foc,momentum_foc"]
        modes_seen = set()
        for i in range(40):
            modes = int(rng.integers(4, 10))
            grid = GridSpec(modes=modes)
            n = grid.n
            c = (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size)) / (1.0 + (n / 8.0) ** 2)
            u = FourierField(grid, c)
            e_scale, c_scale = 1.0 + sobolev_norm_sq(u, 1.0) ** 2, 1.0 + sobolev_norm_sq(u, 3.0) ** 3
            vals = [eleele_residual(u) / e_scale, abs(j0_diag(u)) / (1.0 + c_scale)]
            vals += [r / c_scale for sigma in (1, -1) for r in continuity_residuals(u, FlowParams(sigma=sigma))]
            lines.append(",".join([str(i), str(modes)] + [repr(v) for v in vals]))
            modes_seen.add(modes)
        assert len(modes_seen) >= 3
        assert (tmp_path / "ct" / "residuals.csv").read_text() == "\n".join(lines) + "\n"

    def test_continuity_synthesizes_one_jet_per_mode_count(self, tmp_path, monkeypatch):
        # one 3-jet (4 transforms) per block of fields sharing a mode count
        # (each block here fits in one row chunk); a jet per residual and
        # field would make 14 per field
        calls = []

        def counting(coeffs, modes, size):
            calls.append(modes)
            return synthesize(coeffs, modes, size)

        monkeypatch.setattr(spectral, "synthesize", counting)
        cfg = default_config("continuity", output_dir=str(tmp_path / "ct"))
        cfg = replace(cfg, params={**cfg.params, "n_fields": 60, "max_modes": 12})
        assert run(cfg).passed
        with open(tmp_path / "ct" / "residuals.csv") as fh:
            modes = [int(line.split(",")[1]) for line in list(fh)[1:]]
        assert len(modes) == 60 and len(set(modes)) > 1
        assert Counter(calls) == {m: 4 for m in set(modes)}

    def test_manifest_on_failure(self, tmp_path):
        # a mode outside the grid fails inside the runner; parse_config
        # rejects it, so the config is edited after parsing
        cfg = default_config("plane_wave_order", output_dir=str(tmp_path / "bad"))
        manifest = run(replace(cfg, params={**cfg.params, "mode": 9}))
        assert not manifest.passed
        assert manifest.error is not None
        assert (tmp_path / "bad" / "manifest.json").exists()

    def test_plane_wave_order_keeps_the_config_guard(self, tmp_path):
        # a [flow] blowup_threshold below the plane wave's H^1 norm (about 5.6)
        # stops it before the first step of the first dt: rk4_order fails
        cfg = parse_config(
            "[experiment]\nname = plane_wave_order\n"
            f"output_dir = {tmp_path / 'pw'}\n"
            "[grid]\nmodes = 8\n"
            "[flow]\nblowup_threshold = 1.0\n"
        )
        manifest = run(cfg)
        assert manifest.error is None
        [v] = manifest.verdicts
        assert (v.name, v.passed, v.stats) == ("rk4_order", False, {"dt": 4e-3, "blowup_time": 0.0})

    def test_emit_plots(self, tmp_path):
        run(tiny_conservation(tmp_path))
        path = emit_plots(tmp_path / "run")
        text = path.read_text()
        assert "trajectory.csv" in text

    def test_emit_plots_missing_data(self, tmp_path):
        run(tiny_conservation(tmp_path))
        (tmp_path / "run" / "trajectory.csv").unlink()
        with pytest.raises(FileNotFoundError, match="missing data files"):
            emit_plots(tmp_path / "run")

    def test_emit_plots_no_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            emit_plots(tmp_path)


class TestBlowupIsExpectedOutcome(object):
    def test_focusing_guard_is_not_an_error(self, tmp_path):
        cfg = parse_config(
            "[experiment]\nname = focusing_local\n"
            f"output_dir = {tmp_path / 'foc'}\n"
            "[flow]\nsigma = -1\ndt = 0.0005\n"
            "[run]\nt_end = 0.4\n"
            "[params]\namplitudes = 1.0, 1.6, 2.0\ntrip_amplitude = 3.0\n"
        )
        manifest = run(cfg)
        assert manifest.error is None
        names = {v.name: v.passed for v in manifest.verdicts}
        assert names["large_amplitude_trips_guard"]

    @pytest.mark.parametrize("name, verdict", [("conservation", "conserved_quantities_drift"), ("growth", "e2_linear_bound")])
    def test_trajectory_trip_fails_the_verdict(self, tmp_path, name, verdict):
        # a guard below the initial field's H^1 norm (about 4) stops evolve at t = 0;
        # stride 1 records a state inside growth's fit window, as the parser asks
        cfg = parse_config(
            f"[experiment]\nname = {name}\n"
            f"output_dir = {tmp_path / name}\n"
            "[flow]\nblowup_threshold = 0.5\n"
            "[run]\nt_end = 0.05\n"
            "[params]\nobserver_stride = 1\n"
        )
        manifest = run(cfg)
        assert manifest.error is None
        [v] = manifest.verdicts
        assert (v.name, v.passed, v.stats["blowup_time"]) == (verdict, False, 0.0)

    def test_transport_trip_leaves_every_later_checkpoint_empty(self, tmp_path):
        # member 48 at this seed is unstable at dt = 1e-3 and trips the H^1
        # guard at t = 0.002, before the first checkpoint
        cfg = transport_cfg(tmp_path, seed_offset=25)
        manifest = run(cfg)
        assert manifest.error is None
        snapshots = {
            t: observables_in(tmp_path / "tr" / f"transported_{k}.jsonl")[48] or None
            for k, t in enumerate(cfg.params["times"])
        }
        assert snapshots == {0.05: None, 0.1: None}

    def test_transport_with_every_member_tripped(self, tmp_path):
        # every member trips before its first step, so each checkpoint's live
        # block has no rows
        cfg = transport_cfg(tmp_path)
        cfg = replace(cfg, flow=replace(cfg.flow, blowup_threshold=1e-6))
        manifest = run(cfg)
        assert manifest.error is None
        assert len(observables_in(tmp_path / "tr" / "ensemble.jsonl")[0]) == 6
        for k in range(len(cfg.params["times"])):
            records = observables_in(tmp_path / "tr" / f"transported_{k}.jsonl")
            assert records == [{}] * cfg.run.ensemble_size

    def test_transport_files_match_the_per_member_loop(self, tmp_path):
        # the reference integrates one member at a time with a step() loop;
        # seed variant 25 holds member 48, which trips the guard
        cfg = transport_cfg(tmp_path, seed_offset=25)
        assert run(cfg).error is None
        sigma = cfg.flow.sigma
        lines = {0.0: []} | {t: [] for t in cfg.params["times"]}
        for i in range(cfg.run.ensemble_size):
            record = {"index": i, "seed": derive_seed(cfg.measure.base_seed, i)}
            u = sample_field(cfg.measure, i, cfg.grid)
            lines[0.0].append(json.dumps({**record, "observables": observables(u, sigma)}))
            t_prev, tripped = 0.0, False
            for t in cfg.params["times"]:
                if not tripped:
                    u, blowup_time, _ = step_loop(u, cfg.flow, t - t_prev)
                    tripped, t_prev = blowup_time is not None, t
                lines[t].append(json.dumps({**record, "observables": {} if tripped else observables(u, sigma)}))
        names = ["ensemble.jsonl"] + [f"transported_{k}.jsonl" for k in range(len(cfg.params["times"]))]
        for name, want in zip(names, lines.values()):
            assert (tmp_path / "tr" / name).read_text() == "".join(line + "\n" for line in want), name


class TestCli:
    def test_run_config_file(self, tmp_path, capsys):
        cfg_text = (
            "[experiment]\nname = plane_wave_order\n"
            f"output_dir = {tmp_path / 'pw'}\n"
            "[grid]\nmodes = 8\n"
            "[run]\nt_end = 0.2\n"
        )
        path = tmp_path / "pw.ini"
        path.write_text(cfg_text)
        code = main(["run", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nname = nonsense\n")
        assert main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["run", "/nonexistent/thing.ini"]) == 2

    def test_print_config(self, capsys):
        assert main(["config", "growth"]) == 0
        text = capsys.readouterr().out
        assert "[experiment]" in text and "name = growth" in text
        assert parse_config(text).experiment == "growth"

    @pytest.mark.parametrize(
        "text, why",
        [
            (None, "no manifest.json"),
            ("{not json", "JSONDecodeError"),
            ('{"experiment": "growth"}', "KeyError"),
            ('{"files": 5}', "files must map names to checksums, got int"),
            ('{"files": ["growth.csv"]}', "files must map names to checksums, got list"),
        ],
        ids=["no-manifest", "not-json", "no-files", "files-an-int", "files-a-list"],
    )
    def test_plots_of_a_broken_run_dir_exit_2(self, tmp_path, capsys, text, why):
        if text is not None:
            (tmp_path / "manifest.json").write_text(text)
        assert main(["plots", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("plots error: ") and why in err and err.count("\n") == 1
        assert not (tmp_path / "plots.gp").exists()

    def test_failing_verdict_exit_1(self, tmp_path):
        # RK4 at dt = 0.01 (16^2 * dt = 2.56, inside its stability limit)
        # drifts the Hamiltonian by ~2e-5 in five steps, far above DRIFT_TOL
        path = tmp_path / "cons.ini"
        path.write_text(
            "[experiment]\nname = conservation\n"
            f"output_dir = {tmp_path / 'c'}\n"
            "[grid]\nmodes = 16\n"
            "[flow]\ndt = 0.01\n"
            "[run]\nt_end = 0.05\n"
        )
        assert main(["run", str(path)]) == 1
        [verdict] = json.loads((tmp_path / "c" / "manifest.json").read_text())["verdicts"]
        assert verdict["name"] == "conserved_quantities_drift" and "blowup_time" not in verdict["stats"]
        assert verdict["stats"]["drift_hamiltonian"] > 1e3 * DRIFT_TOL

    def test_subcommand_with_overrides(self, tmp_path, capsys):
        code = main(
            [
                "plane_wave_order",
                "--output-dir",
                str(tmp_path / "pw2"),
                "--t-end",
                "0.2",
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "pw2" / "manifest.json").read_text())
        assert manifest["experiment"] == "plane_wave_order"
