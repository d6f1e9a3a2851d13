"""The benchmark's correctness gate, run as a Tier-1 test.

Seed variant 0 of each benchmark workload (perfbench/workloads.py) runs
once. Each experiment must pass the benchmark's own check_output
(perfbench/worker.py: no error, verdicts as tabled in expected_verdicts.json,
data files matching the checksums in manifest.json). Its directory must hold
exactly the manifest's files plus manifest.json, so that check_output sees
every file, and every data file must have the sha256 pinned below. config.ini
is left out of the pins: it echoes the temporary output_dir.

The pins were taken with numpy 2.4.6 and scipy 1.17.1 on x86-64, from the
code whose transforms follow numpy's norm="forward" convention (synthesize
unscaled, analyze scaling by 1/size inside pocketfft) and whose quintic
forms |u|^4 by two squarings, which holds each P_M-projected field as its
band's coefficients and evaluates it on GridSpec(M)'s pads (energy.band),
and which takes the smoothing bound's |u_x|^4 on the degree-4 pad. A change
that alters rounding on purpose (an integrating-factor RK4, say) re-pins the
values and says so in CHANGES.md.

The tracer (perfbench/tracing.py) patches the qnls functions it names in
LAYER_TARGETS, looked up with no default; every one of them must exist.

The perfbench files are imported, never modified.
"""

import hashlib
import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from qnls.config import parse_config, serialize_config
from qnls.experiments import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PINNED = {
    "trajectory": {
        "conservation": {
            "breakdowns.jsonl": "02bddf1c47198e6332a31577840a69166b1b64d991d8f70f1e705d3809dffbc7",
            "trajectory.csv": "d39295737c2d182eeeeae358af0629b3b3aaf5b105f23db2afe9071a1ed59fc3",
        },
        "focusing_local": {
            "focusing.csv": "3f2b90203761e44063914fcaedf0f4c3ac92ac893708fc87c6d6c8775677edc3",
        },
        "growth": {
            "growth.csv": "41eb416f022e4b83e1eeb3cd0bf4147456c24550581cf10085a9f882a9fc1151",
        },
        "plane_wave_order": {
            "orders.csv": "efd82254dcd085e69db4194ac7ca6b4b694204a7cb6715f11d23d8ebdacaeab9",
        },
        "truncation_convergence": {
            "flow_convergence.csv": "13b4a3d61b4f01ecc9e529b0e312b93fffe7844b357cd69f52103463b3ad5bd5",
            "r2_curve.csv": "4951c181d40cea698bbf65c8af486d77ae56f60261dbfb6c25007e811b434c3a",
        },
    },
    "ensemble": {
        "transport_mc": {
            "ensemble.jsonl": "18cb63979ef523d53550ff1e2351d7d0fe91bedcb574db8c434e515989dc8b6b",
            "tails.csv": "3062a69694f29fc007f6a8c801251e6dff9da7e398e456272ccfefe05147f2f7",
            "transported_0.jsonl": "dda0f3ab061ce4f3d66619aa64af6fde8ead3f43cbb7066572795356049cefac",
            "transported_1.jsonl": "3fa85936c570d328277b2b48f1cfd6e0e496c2301f5a5089dfdda4c03e8d773c",
        },
    },
    "fields": {
        "continuity": {
            "residuals.csv": "8c0284b6d4f2be887cb730f6e1e8f4a62c17311f017345bcbbd191fb4a217372",
        },
        "linear_invariance": {
            "ks.csv": "ceeb2f5594867c0ff809b46473c8f71fd35f43a6b7bff0d46b13afd7dd7f1a8d",
        },
        "smoothing_sweep": {
            "perturb.csv": "7de5c9a34af985575d88b8922dacedecd4d777b1c45edb6f354302bad6d1422e",
            "sweep.csv": "b807639411733063f961765a079b63853a12b3692f2a9970043260be57a708a0",
        },
    },
}


@pytest.mark.parametrize("workload", list(PINNED))
def test_variant_0_passes_the_gate_with_pinned_data(workload, tmp_path):
    workloads, worker = _load("workloads"), _load("worker")
    for experiment, cfg, expected, _ in workloads.plan(workload, 0, workloads.load_expected()):
        out = tmp_path / experiment
        manifest = run(replace(cfg, output_dir=str(out)))
        assert worker.check_output(manifest, out, expected) == [], experiment
        assert {path.name for path in out.iterdir()} == {*manifest.files, "manifest.json"}, experiment
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()
            if path.name not in ("config.ini", "manifest.json")
        }
        assert digests == PINNED[workload][experiment], experiment


def test_tracer_targets_resolve():
    # a renamed or removed target would crash `perfbench/run.py --trace 1`
    tracing = _load("tracing")
    missing = [
        f"{module}.{attr}"
        for _, module, attr in tracing.LAYER_TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracing.LAYER_TARGETS and missing == []


def test_every_planned_config_passes_the_parse_time_checks():
    # the benchmark edits its configs with dataclasses.replace, past the parser
    workloads = _load("workloads")
    for workload in workloads.WORKLOADS:
        for variant in range(workloads.SEED_VARIANTS):
            for _, cfg, _, _ in workloads.plan(workload, variant, None):
                assert parse_config(serialize_config(cfg)) == cfg, (workload, variant)
