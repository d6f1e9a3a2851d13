"""The benchmark's correctness gate, run as a Tier-1 test.

Seed variant 0 of each benchmark workload (perfbench/workloads.py) runs
once. Each experiment must pass the benchmark's own check_output
(perfbench/worker.py: no error, verdicts as tabled in expected_verdicts.json,
data files matching the checksums in manifest.json). Its directory must hold
exactly the manifest's files plus manifest.json, so that check_output sees
every file, and every data file must have the sha256 pinned below. config.ini
is left out of the pins: it echoes the temporary output_dir.

The pins were taken with numpy 2.4.6 and scipy 1.17.1 on x86-64, from the
code before flow.evolve became a one-row evolve_block; the data files have
not changed since. A change that alters rounding on purpose (an
integrating-factor RK4, say) re-pins the values and says so in CHANGES.md.

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
            "breakdowns.jsonl": "c42e82e473ce986eee6174282b622e56b20b46d86263f0d87797dab568650b28",
            "trajectory.csv": "0637a1e465e4b6a037ba16bc1e6278752e156ac014b0894d7d9cc19369f7b731",
        },
        "focusing_local": {
            "focusing.csv": "8a56c419c5f857c873aed68af8b6d73097051a30091541b5afe599767899cd99",
        },
        "growth": {
            "growth.csv": "b3adb68f908b01e5c1d596b7076ebd9dea41a1b77767d0d6eb2cf8ffc4327a18",
        },
        "plane_wave_order": {
            "orders.csv": "b331dd1e7ed81944c58a44b34024d7c686b418d5300e44dfdd11ea3942ff066d",
        },
        "truncation_convergence": {
            "flow_convergence.csv": "3d93a972d63b9255497214aea3ec61ae148029b4df7cf0914a9c6486993172d1",
            "r2_curve.csv": "a96717e7c647806d64d3f60412118f9c57bea44a9a0d8ebe400b7980d314c262",
        },
    },
    "ensemble": {
        "transport_mc": {
            "ensemble.jsonl": "7ab63451301c003ecd05cf3caa54019e5533cffa8a35dc841a44beb4ddf48e5d",
            "tails.csv": "3062a69694f29fc007f6a8c801251e6dff9da7e398e456272ccfefe05147f2f7",
            "transported_0.jsonl": "9af23be469c63fa3acc402f9916935a117e4ba0c863de63d042d571099ce507a",
            "transported_1.jsonl": "a26d056847b6a10f8249d7004293aebf90825ad12d469b5e165a9cbe34454924",
        },
    },
    "fields": {
        "continuity": {
            "residuals.csv": "7b7591cc85f3f5a4877570d619b75c701bb42959e49e8edc47a4ddb5258d9c06",
        },
        "linear_invariance": {
            "ks.csv": "ceeb2f5594867c0ff809b46473c8f71fd35f43a6b7bff0d46b13afd7dd7f1a8d",
        },
        "smoothing_sweep": {
            "perturb.csv": "419561f4a2a6d0c1d494582a64612290806ab8b1f85f6542578707fd9d8dcbc0",
            "sweep.csv": "9f96013a83b35274ad95c8c14f33474ce2679b15eb34ae24b3a6639d287328c4",
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
