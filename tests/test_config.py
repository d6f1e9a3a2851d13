"""Config grammar: parsing, validation, canonical round-trip."""

import math
import re

import pytest

from qnls import FlowParams, GridSpec, MeasureSpec
from qnls.cli import main
from qnls.config import (
    _SECTIONS,
    EXPERIMENTS,
    ConfigError,
    Experiment,
    RunSettings,
    apply_overrides,
    default_config,
    parse_config,
    serialize_config,
)
from qnls.experiments import _RUNNERS

from oracles import replace_overrides


MINIMAL = """
[experiment]
name = conservation
"""


class TestParse:
    def test_minimal(self):
        cfg = parse_config(MINIMAL)
        assert cfg.experiment == "conservation"
        assert cfg.output_dir == "runs/conservation"
        assert cfg.grid.modes == 32
        # a flow carries no Galerkin cutoff: evolve takes one per row
        assert list(vars(cfg.flow)) == ["sigma", "dt", "blowup_threshold"]

    def test_section_defaults_are_the_dataclass_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid == GridSpec(modes=32)
        assert cfg.flow == FlowParams()
        assert cfg.measure == MeasureSpec()
        assert cfg.run == RunSettings()

    def test_full_document(self):
        cfg = parse_config(
            """
            [experiment]
            name = transport_mc
            output_dir = out/tr

            [grid]
            modes = 16

            [flow]
            sigma = -1
            dt = 0.002

            [measure]
            s = 2.0
            M = 16
            base_seed = 7

            [run]
            ensemble_size = 128

            [params]
            times = 0.1, 0.2
            quantile = 0.85
            """
        )
        assert (cfg.flow.sigma, cfg.flow.dt) == (-1, 0.002)
        assert cfg.measure.base_seed == 7
        assert cfg.params["times"] == (0.1, 0.2)

    def test_requires_name(self):
        with pytest.raises(ConfigError, match="name"):
            parse_config("[experiment]\noutput_dir = x\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config("[experiment]\nname = quantum_leap\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "[extra]\nx = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "[grid]\nmodez = 4\n")

    def test_pad_rule_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown key 'pad_rule'"):
            parse_config(MINIMAL + "[grid]\npad_rule = exact_quintic\n")

    def test_workers_is_not_a_key(self):
        # configs written when ensembles could run on a process pool
        with pytest.raises(ConfigError, match="unknown key 'workers'"):
            parse_config(MINIMAL + "[run]\nworkers = 1\n")

    @pytest.mark.parametrize("section, line", [("flow", "integrator = rk4"), ("grid", "phys_size = 17")])
    def test_removed_keys_are_not_keys(self, tmp_path, capsys, section, line):
        # config.ini echoes written when [flow] chose an integrator and
        # [grid] carried a quadrature size
        text = MINIMAL + f"[{section}]\n{line}\n"
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(text)
        path = tmp_path / "old.ini"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_a_file_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        # a Latin-1 byte in a comment: exit 2 with the decode error, not a
        # traceback and exit 1, which would read as a failed verdict
        out = tmp_path / "out"
        path = tmp_path / "latin1.ini"
        path.write_bytes(f"[experiment]\nname = conservation\noutput_dir = {out}\n; caf".encode() + b"\xe9\n")
        assert main(["run", str(path)]) == 2
        assert "config error: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err
        assert not out.exists()

    def test_moved_keys_are_not_keys_where_they_were(self, tmp_path, capsys):
        # config.ini echoes written before each setting had one key, in the
        # section of the experiments that read it; migrate by moving the line
        old = {
            "flow_dt": "[experiment]\nname = truncation_convergence\n\n[params]\nflow_dt = 0.0001\n",
            "n_samples": "[experiment]\nname = truncation_convergence\n\n[params]\nn_samples = 4\n",
            "m_sweep": "[experiment]\nname = smoothing_sweep\n\n[run]\nm_sweep = 16, 32, 64, 128\n",
            "observer_stride": "[experiment]\nname = growth\n\n[run]\nobserver_stride = 100\n",
        }
        for key, text in old.items():
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(text)
        path = tmp_path / "old.ini"
        path.write_text(old["observer_stride"])
        assert main(["run", str(path)]) == 2
        assert "[run] unknown key 'observer_stride'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, line",
        [
            ("conservation", "drift_tol = 1e-08"),
            ("plane_wave_order", "min_order = 3.7"),
            ("plane_wave_order", "max_order = 4.3"),
            ("continuity", "eleele_tol = 1e-09"),
            ("continuity", "continuity_tol = 1e-08"),
            ("continuity", "j0_tol = 1e-09"),
            ("linear_invariance", "alpha = 0.05"),
            ("smoothing_sweep", "m0 = 10"),
            ("smoothing_sweep", "uniformity_factor = 2.0"),
            ("smoothing_sweep", "slope_min = 1.0"),
            ("growth", "fit_fraction = 0.1"),
            ("growth", "slack = 2.0"),
            ("transport_mc", "log_slack = 0.6931471805599453"),
            ("truncation_convergence", "final_fraction = 0.001"),
        ],
    )
    def test_verdict_thresholds_are_not_keys(self, tmp_path, capsys, name, line):
        # config.ini echoes written when [params] carried each verdict's
        # threshold; the thresholds are constants, and the line goes
        text = f"[experiment]\nname = {name}\n\n[params]\n{line}\n"
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(text)
        path = tmp_path / "old.ini"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert f"[params] unknown key '{key}'" in capsys.readouterr().err

    def test_unknown_param(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL + "[params]\nnot_a_knob = 1\n")

    def test_bad_type(self):
        with pytest.raises(ConfigError, match=r"\[grid\] modes"):
            parse_config(MINIMAL + "[grid]\nmodes = many\n")

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_rejects_zero_modes(self, name):
        # GridSpec(0) is P_0's band in energy; no experiment runs on it
        with pytest.raises(ConfigError, match=r"\[grid\] needs modes >= 1, got 0"):
            parse_config(f"[experiment]\nname = {name}\n\n[grid]\nmodes = 0\n")

    def test_field_validation_propagates(self):
        with pytest.raises(ConfigError, match="sigma"):
            parse_config(MINIMAL + "[flow]\nsigma = 2\n")

    def test_float_key_given_an_int_is_a_float(self):
        cfg = parse_config(MINIMAL + "[run]\nt_end = 1\n\n[params]\namplitude = 1\n")
        assert type(cfg.run.t_end) is type(cfg.params["amplitude"]) is float
        assert cfg.run.t_end == cfg.params["amplitude"] == 1.0
        text = serialize_config(cfg)
        assert "\nt_end = 1.0\n" in text and "\namplitude = 1.0\n" in text
        times = parse_config("[experiment]\nname = linear_invariance\n\n[params]\ntimes = 1, 2\n").params["times"]
        assert [type(t) for t in times] == [float, float] and times == (1.0, 2.0)

    @pytest.mark.parametrize("line", ["cutoff = 8", "cutoff = 16", "cutoff = full"])
    def test_cutoff_vs_grid(self, tmp_path, capsys, line):
        # config.ini echoes written when [flow] carried a Galerkin cutoff,
        # within the grid's 8 modes or past them: a cutoff is evolve's, per
        # row, and the line goes
        text = MINIMAL + f"[grid]\nmodes = 8\n\n[flow]\n{line}\n"
        with pytest.raises(ConfigError, match="unknown key 'cutoff'"):
            parse_config(text)
        path = tmp_path / "old.ini"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert "[flow] unknown key 'cutoff'" in capsys.readouterr().err

    def test_transport_needs_enough_members_for_tail_ratio(self):
        text = "[experiment]\nname = transport_mc\n\n[run]\nensemble_size = {}\n"
        with pytest.raises(ConfigError, match="ensemble_size"):
            parse_config(text.format(99))
        assert parse_config(text.format(100)).run.ensemble_size == 100

    @pytest.mark.parametrize("n_fields", [0, -5])
    def test_continuity_needs_a_field(self, n_fields):
        # with no field every verdict would pass unchecked
        text = f"[experiment]\nname = continuity\n\n[params]\nn_fields = {n_fields}\n"
        with pytest.raises(ConfigError, match="n_fields >= 1"):
            parse_config(text)

    @pytest.mark.parametrize(
        "name, setting, match",
        [
            ("plane_wave_order", "dt_list = 0.001", "dt_list"),  # no order to check
            ("plane_wave_order", "mode = 9", "mode"),
            ("plane_wave_order", "dt_list = 0.003, 0.0015, 0.00075", "whole steps"),  # t_end = 0.5
            ("plane_wave_order", "dt_list = 0.004, 0.0", "whole steps"),
            ("plane_wave_order", "dt_list = 0.004, 0.004", "distinct dt_list"),  # order 0 / 0
            ("plane_wave_order", "amplitude = 0.0", "amplitude != 0"),  # error 0.0 at every dt: order 0 / 0
            ("truncation_convergence", "ensemble_size = 0", "ensemble_size"),  # no curve to check
            ("truncation_convergence", "m_list = 16, 64, 32", "m_list"),
            ("truncation_convergence", "m_list = 16, 512", r"m_list in \[0, \[grid\] modes\]"),  # delta 0.0 at 512
            ("truncation_convergence", "flow_m_list = 8, 256", "flow_m_list"),
            # the flow errors can only fall along an increasing flow_m_list
            ("truncation_convergence", "flow_m_list = 64, 32, 16, 8", "strictly increasing flow_m_list"),
            ("truncation_convergence", "flow_m_list = 8, 8", "strictly increasing flow_m_list"),
            ("smoothing_sweep", "m_sweep = 16, 256", "m_sweep"),
            ("smoothing_sweep", "m_sweep = 16", "m_sweep"),  # no slope to fit
            ("smoothing_sweep", "m_sweep = 32, 32", "distinct m_sweep"),  # one cutoff against itself
            # the drifts divide by the initial momentum
            ("conservation", "amplitude = 0.0\nbias_mode = 0", "nonzero initial momentum"),
            ("conservation", "amplitude = 0.0\nbias = 0.0", "nonzero initial momentum"),
            ("conservation", "bias_mode = 33", r"\|bias_mode\| <= \[grid\] modes"),  # modes = 32
            ("transport_mc", "times =", "times"),
            ("transport_mc", "times = 0.25, 0.25", "times"),
            ("transport_mc", "times = 0.25", "times"),  # log_ratio_at_most_linear compares t against itself
            ("transport_mc", "times = 0.0, 0.5", "times"),
            ("linear_invariance", "times =", "times"),  # no time to check
            ("focusing_local", "amplitudes =", "amplitudes"),  # no amplitude to check
            # T can only fall along increasing amplitudes: 2.0, 1.0 gives T = (0.2695, 0.5)
            ("focusing_local", "amplitudes = 2.0, 1.0", "amplitudes, positive and strictly increasing"),
            ("focusing_local", "amplitudes = 0.0, 1.0", "amplitudes, positive and strictly increasing"),
            # a NaN initial row: the guard trips at t = 0 and the drifts are NaN
            ("conservation", "width = 0.0", "width > 0"),
            ("growth", "width = 0.0", "width > 0"),
            # a zero field never drifts: C_fit is the floor 1e-12 and the bound holds
            ("growth", "amplitude = 0.0", "amplitude != 0"),
            # errors all NaN at decay 0, all 0.0 at a zero field or a negative decay
            ("truncation_convergence", "flow_decay = 0.0", "flow_decay > 0"),
            ("truncation_convergence", "flow_amplitude = 0.0", "flow_amplitude != 0"),
            ("linear_invariance", "times = 0.0, 1.0", "nonzero times"),  # KS 0.0: the ensemble against itself
            # c(alpha) sqrt(2 / 3) = 1.109 at 3 members, above any KS statistic; 0.960 at 4
            ("linear_invariance", "ensemble_size = 3", "KS critical value is below 1"),
            ("conservation", "observer_stride = 0", "observer_stride"),
            ("growth", "observer_stride = 0", "observer_stride"),
            ("growth", "observer_stride = 20001", "fit window"),  # first state at t = 20.001 > 0.1 * 200
            ("transport_mc", "quantile = 1.5", "0 < quantile < 1"),
            ("truncation_convergence", "dt = 0.0", "dt must be positive"),
            # n^2 dt of the top mode beyond RK4's limit 2*sqrt(2) on the imaginary axis
            ("conservation", "dt = 0.003", r"modes\^2 \* dt <= 2\*sqrt\(2\)"),  # 32^2 * 0.003 = 3.07
            ("growth", "dt = 0.003", r"modes\^2 \* dt <= 2\*sqrt\(2\)"),
            ("transport_mc", "dt = 0.003", r"modes\^2 \* dt <= 2\*sqrt\(2\)"),
            ("focusing_local", "dt = 0.003", r"modes\^2 \* dt <= 2\*sqrt\(2\)"),
            ("plane_wave_order", "dt_list = 0.05, 0.025", r"max\(dt_list\) <= 2\*sqrt\(2\)"),  # 8^2 * 0.05 = 3.2
            ("truncation_convergence", "dt = 0.0002", r"flow_modes\^2 \* dt <= 2\*sqrt\(2\)"),  # 3.28
            # sample_mu draws modes |n| <= M onto the grid
            ("linear_invariance", "M = 64", r"\[measure\] M <= \[grid\] modes"),  # modes = 32
            ("smoothing_sweep", "M = 256", r"\[measure\] M <= \[grid\] modes"),  # modes = 128
            ("transport_mc", "M = 64", r"\[measure\] M <= \[grid\] modes"),  # modes = 32
            ("truncation_convergence", "M = 512", r"\[measure\] M <= \[grid\] modes"),  # modes = 256
            # at M = 0 every member is a constant, which the flow only turns in
            # phase: every KS statistic is 0.0 and every tail ratio 1.0
            ("linear_invariance", "M = 0", r"1 <= \[measure\] M"),
            ("transport_mc", "M = 0", r"1 <= \[measure\] M"),
            # an empty path is the working directory, which the run would fill
            ("conservation", "output_dir =", "output_dir must not be empty"),
        ],
    )
    def test_rejects_what_a_run_fails_on_or_checks_nothing_with(self, name, setting, match):
        # the experiment's default config with the setting's lines replaced
        text = serialize_config(default_config(name))
        for line in setting.split("\n"):
            key = line.split(" =")[0]
            edited = re.sub(rf"^{key} = .*$", line, text, count=1, flags=re.M)
            assert edited != text
            text = edited
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    @pytest.mark.parametrize(
        "name, section, line",
        [
            ("conservation", "flow", "dt = nan"),
            ("conservation", "run", "t_end = inf"),
            ("conservation", "flow", "blowup_threshold = -inf"),
            ("conservation", "params", "amplitude = nan"),
            ("linear_invariance", "params", "times = 0.1, inf"),
        ],
    )
    def test_rejects_non_finite_floats(self, name, section, line):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: not a finite number"):
            parse_config(f"[experiment]\nname = {name}\n\n[{section}]\n{line}\n")

    def test_rk4_limit_is_2_sqrt_2(self):
        # RK4 amplifies i*z for |z| > 2*sqrt(2) = 2.828...; smoothing_sweep,
        # continuity and linear_invariance never step, so their [flow] dt is
        # not checked
        text = "[experiment]\nname = {}\n\n[flow]\ndt = {!r}\n"
        assert parse_config(text.format("conservation", 2.82 / 32**2)).flow.dt == 2.82 / 32**2
        with pytest.raises(ConfigError, match="RK4's stability limit"):
            parse_config(text.format("conservation", 2.83 / 32**2))
        for name in ("smoothing_sweep", "continuity", "linear_invariance"):
            text = re.sub(r"^dt = .*$", "dt = 0.01", serialize_config(default_config(name)), count=1, flags=re.M)
            assert parse_config(text).flow.dt == 0.01

    def test_continuity_needs_max_modes_of_at_least_4(self):
        # modes are drawn from [4, max_modes]; 3 would fail at the first draw
        text = "[experiment]\nname = continuity\n\n[params]\nmax_modes = {}\n"
        with pytest.raises(ConfigError, match="max_modes >= 4"):
            parse_config(text.format(3))
        assert parse_config(text.format(4)).params["max_modes"] == 4


def test_one_experiment_registry():
    # each experiment is one record (schema, needs, defaults) and has a runner
    assert all(isinstance(record, Experiment) for record in EXPERIMENTS.values())
    assert set(_RUNNERS) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_name_line_alone_is_the_default_config(name):
    # one default per key: the experiment's defaults over the generic ones
    cfg = parse_config(f"[experiment]\nname = {name}\n")
    assert cfg == default_config(name)
    for section, overlay in EXPERIMENTS[name].defaults.items():
        for key, value in overlay.items():
            assert getattr(getattr(cfg, section), key) == value, (section, key)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_defaults_take_the_type_of_their_generic_default(name):
    # a key's type is its generic default's: a tuple lists its first
    # entry's type, so none may be empty
    schemas = {**_SECTIONS, "params": EXPERIMENTS[name].params}
    for section, overlay in EXPERIMENTS[name].defaults.items():
        for key, value in overlay.items():
            assert type(value) is type(schemas[section][key]), (section, key)
    for schema in schemas.values():
        for key, default in schema.items():
            assert type(default) in (bool, int, float, tuple), key
            if isinstance(default, tuple):
                assert default and len({type(v) for v in default}) == 1, key


class TestRoundTrip:
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_default_roundtrip(self, name):
        cfg = default_config(name)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_roundtrip_preserves_irrational_floats(self):
        cfg = default_config("linear_invariance")
        assert math.pi in cfg.params["times"]
        back = parse_config(serialize_config(cfg))
        assert back.params["times"] == cfg.params["times"]


class TestOverrides:
    def test_all_overrides(self):
        cfg = default_config(
            "conservation",
            output_dir="elsewhere",
            base_seed=99,
            dt=5e-4,
            t_end=2.5,
        )
        assert cfg.output_dir == "elsewhere"
        assert cfg.measure.base_seed == 99
        assert cfg.flow.dt == 5e-4
        assert cfg.run.t_end == 2.5

    def test_workers_override_takes_only_one(self):
        cfg = default_config("linear_invariance")
        assert apply_overrides(cfg, workers=1) == cfg
        with pytest.raises(ConfigError, match="workers"):
            apply_overrides(cfg, workers=2)

    def test_cli_rejects_workers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["linear_invariance", "--workers", "1"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_dt_sets_the_truncation_flow_step(self):
        assert default_config("truncation_convergence", dt=5e-5).flow.dt == 5e-5

    def test_none_overrides_are_inert(self):
        cfg = default_config("conservation")
        assert apply_overrides(cfg) == cfg

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_valid_overrides_set_the_fields_they_name(self, name):
        cfg = default_config(name)
        every = {
            "output_dir": "elsewhere",
            "base_seed": cfg.measure.base_seed + 3,
            "dt": cfg.flow.dt / 2,
            "t_end": 2 * cfg.run.t_end,
        }
        for overrides in [every, *({key: value} for key, value in every.items())]:
            expected = replace_overrides(cfg, **overrides)
            assert parse_config(serialize_config(cfg), **overrides) == expected, overrides
            assert default_config(name, **overrides) == expected, overrides
            assert apply_overrides(cfg, **overrides) == expected, overrides

    def test_unknown_override_is_an_error(self):
        # even when None, so a misspelt override is not silently ignored
        with pytest.raises(TypeError, match="'seed'"):
            parse_config(MINIMAL, seed=None)

    @pytest.mark.parametrize(
        "argv",
        [
            "plane_wave_order --t-end 0.31",  # no whole number of 0.004 steps
            "conservation --dt -1",
            "conservation --t-end -1",
            "conservation --dt nan",
            "conservation --t-end inf",
            "conservation --t-end nan",
        ],
    )
    def test_cli_rejects_bad_overrides_before_the_run(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv.split(), "--output-dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_rejects_an_empty_output_dir(self, tmp_path, capsys, monkeypatch):
        # the override sets the same config line as the file's
        monkeypatch.chdir(tmp_path)
        assert main(["conservation", "--output-dir", ""]) == 2
        assert "output_dir must not be empty" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_run_overrides_are_checked_as_file_lines(self, tmp_path, capsys):
        path = tmp_path / "conservation.ini"
        path.write_text(serialize_config(default_config("conservation", output_dir=str(tmp_path / "out"))))
        assert main(["run", str(path), "--dt", "inf"]) == 2
        assert "[flow] dt: not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
