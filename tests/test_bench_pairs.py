"""bench_pairs's summary and pair order, on made-up runs."""

import json

import pytest

import bench_pairs

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.99]


def test_a_clear_gain_holds():
    s = bench_pairs.summarize(PARENT, [p - 0.08 for p in PARENT], lower_is_better=True)
    assert (s["wins"], s["pairs"], s["wins_needed"]) == (10, 10, 9)
    assert s["parent_median"] == pytest.approx(1.0)
    assert s["change_median"] == pytest.approx(0.92)
    assert s["parent_q1"] < s["parent_median"] < s["parent_q3"]
    assert s["claim_holds"]


def test_a_gain_inside_the_spread_does_not_hold():
    # the change wins every pair, by less than the parent's quartile spread
    s = bench_pairs.summarize(PARENT, [p - 0.01 for p in PARENT], lower_is_better=True)
    assert s["wins"] == 10 and s["parent_iqr"] > 0.01
    assert not s["claim_holds"]


def test_two_losses_in_ten_do_not_hold():
    change = [p - 0.08 for p in PARENT]
    change[3] = change[7] = 2.0
    s = bench_pairs.summarize(PARENT, change, lower_is_better=True)
    assert s["wins"] == 8 and not s["claim_holds"]


def test_higher_is_better_counts_the_other_way():
    s = bench_pairs.summarize(PARENT, [p + 0.08 for p in PARENT], lower_is_better=False)
    assert s["wins"] == 10 and s["claim_holds"]
    assert not bench_pairs.summarize(PARENT, [p + 0.08 for p in PARENT], lower_is_better=True)["claim_holds"]


def test_unequal_or_single_runs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], lower_is_better=True)
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0], lower_is_better=True)


def make_checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower"}, {"name": "work_per_s", "better": "higher"}]}
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(spec))
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def fake_runs(calls, change_correct=True, change_failed=0):
    """A run_once in which the change is twice as fast as the parent."""

    def fake_run(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        change = checkout.name == "change"
        wall = 0.5 if change else 1.0
        return {
            "correct": change_correct if change else True,
            "failed": change_failed if change else 0,
            "metrics": {"wall_s": wall + seed / 100, "work_per_s": 1 / wall},
        }

    return fake_run


def test_sides_alternate_and_seeds_count_up(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", fake_runs(calls))
    argv = make_checkouts(tmp_path) + ["--workload", "ensemble", "--pairs", "4", "--seed", "3"]
    assert bench_pairs.main(argv) == 0
    assert [(side, seed) for side, _, seed in calls] == [
        ("parent", 3), ("change", 3), ("change", 4), ("parent", 4),
        ("parent", 5), ("change", 5), ("change", 6), ("parent", 6),
    ]
    out = capsys.readouterr().out
    assert "change better in 4 of 4" in out
    assert out.splitlines()[-1] == (
        "claim on wall_s: holds (4 wins of 4, 4 needed; median gap 0.5 against parent IQR 0.025)"
    )


@pytest.mark.parametrize(
    "correct, failed, reason",
    [
        (False, 0, "4 change run(s) not correct"),
        (True, 1, "4 failed operations on the change against 0 on the parent"),
    ],
)
def test_failed_change_runs_void_a_faster_change(tmp_path, monkeypatch, capsys, correct, failed, reason):
    monkeypatch.setattr(bench_pairs, "run_once", fake_runs([], change_correct=correct, change_failed=failed))
    argv = make_checkouts(tmp_path) + ["--workload", "ensemble", "--pairs", "4"]
    assert bench_pairs.main(argv) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("claim on wall_s: does not hold (4 wins of 4, 4 needed;")
    assert last.endswith(f"; {reason})")


def test_failures_count_against_the_parent_s():
    parent = [{"correct": False, "failed": 2}, {"correct": True, "failed": 0}]
    assert bench_pairs.failure_reasons(parent, [{"correct": True, "failed": 0}] * 2) == []
    assert bench_pairs.failure_reasons(parent, [{"correct": True, "failed": 1}] * 2) == []
    assert bench_pairs.failure_reasons(parent, [{"correct": True, "failed": 2}] * 2) == [
        "4 failed operations on the change against 2 on the parent"
    ]


def test_record_keeps_each_workload_and_the_machine(tmp_path, monkeypatch):
    machine = {"nproc": 2, "cpu_model": "test"}

    def with_machine(run):
        return lambda checkout, workload, seed: {**run(checkout, workload, seed), "machine": machine}

    monkeypatch.setattr(bench_pairs, "run_once", with_machine(fake_runs([])))
    path = tmp_path / "BENCH_7.json"
    checkouts = make_checkouts(tmp_path)
    for workload in ("ensemble", "fields"):
        argv = checkouts + ["--workload", workload, "--pairs", "2", "--seed", "5", "--record", str(path)]
        assert bench_pairs.main(argv) == 0
    data = json.loads(path.read_text())
    assert data["machine"] == machine and list(data["workloads"]) == ["ensemble", "fields"]
    fields = data["workloads"]["fields"]
    assert [(p["seed"], p["first"]) for p in fields["pairs"]] == [(5, "parent"), (6, "change")]
    assert fields["pairs"][1]["change"] == {"correct": True, "failed": 0, "metrics": {"wall_s": 0.56, "work_per_s": 2.0}}
    assert fields["summary"]["wall_s"]["wins"] == 2
    assert fields["claim"] == {"metric": "wall_s", "holds": True, "reasons": []}
