"""Verdict power: each verdict listed here passes at its experiment's defaults
and fails once a plausible defect is patched into the program.

A verdict that no plausible defect turns red checks nothing.  Each case
patches one defect in with monkeypatch, runs the experiment's default config
again, and asserts the verdict red, with the statistic that sinks it.  The
defects, and what they read at the defaults:

- conservation, conserved_quantities_drift: the flow's quintic factor
  -i sigma times 1.1 in flow._bin_symbols; drift_hamiltonian 4.4e-3 against
  a tolerance of 1e-8.
- plane_wave_order, rk4_order: forward Euler in place of flow._rk4; orders
  1.03, 1.01 and 1.01 against [3.7, 4.3].
- linear_invariance, linear_flow_invariance: experiments.linear_flow_rows
  times 1.05, a flow that does not keep |c_n|; KS 0.278 against 0.061.
"""

import csv

import pytest

from qnls import experiments, flow
from qnls.config import default_config
from qnls.experiments import DRIFT_TOL, run


def _quintic_times_1_1(monkeypatch):
    symbols = flow._bin_symbols

    def scaled(modes, size, sigma):
        factor, lin = symbols(modes, size, sigma)
        return 1.1 * factor, lin

    monkeypatch.setattr(flow, "_bin_symbols", scaled)


def _forward_euler(monkeypatch):
    monkeypatch.setattr(flow, "_rk4", lambda u, rhs, dt: u + dt * rhs(u))


def _linear_flow_times_1_05(monkeypatch):
    exact = experiments.linear_flow_rows
    monkeypatch.setattr(experiments, "linear_flow_rows", lambda c, grid, t: 1.05 * exact(c, grid, t))


def _drift_past_tolerance(stats, out):
    return stats["drift_hamiltonian"] > 1e3 * DRIFT_TOL


def _orders_near_one(stats, out):
    return all(0.9 <= o <= 1.1 for o in stats["orders"])


def _ks_past_critical(stats, out):
    with open(out / "ks.csv") as fh:
        return max(float(row["ks"]) for row in csv.DictReader(fh)) > 2.0 * stats["critical"]


# experiment -> (verdict, defect, what the defect's statistics and files read)
DEFECTS = {
    "conservation": ("conserved_quantities_drift", _quintic_times_1_1, _drift_past_tolerance),
    "plane_wave_order": ("rk4_order", _forward_euler, _orders_near_one),
    "linear_invariance": ("linear_flow_invariance", _linear_flow_times_1_05, _ks_past_critical),
}


def _verdict(experiment, name, out):
    manifest = run(default_config(experiment, output_dir=str(out)))
    assert manifest.error is None, manifest.error
    (verdict,) = [v for v in manifest.verdicts if v.name == name]
    return verdict


@pytest.mark.parametrize("experiment", DEFECTS)
def test_defect_turns_the_verdict_red(experiment, tmp_path, monkeypatch):
    name, defect, reads = DEFECTS[experiment]
    clean = _verdict(experiment, name, tmp_path / "clean")
    assert clean.passed, clean.stats
    defect(monkeypatch)
    broken = _verdict(experiment, name, tmp_path / "defect")
    assert not broken.passed and reads(broken.stats, tmp_path / "defect"), broken.stats
