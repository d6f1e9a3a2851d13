"""replay_plan's comparisons, on hand-built dumps."""

import json

import pytest

import replay_plan


def _dump(path, passed, digest, stat):
    records = {
        "default/growth": {
            "files": {"growth.csv": digest},
            "verdicts": [["e2_grows", passed, {"ratio": stat}], ["finite", True, {}]],
            "error": None,
        },
        "fields/0/continuity": {"files": {}, "verdicts": [], "error": "KeyError: 0.1"},
    }
    path.write_text(json.dumps(records))
    return str(path)


@pytest.mark.parametrize("passed, code", [(True, 0), (False, 1)], ids=["same", "flipped"])
def test_verdicts_compares_outcomes_only(tmp_path, capsys, passed, code):
    # the two dumps differ in a file hash and a stat: diff flags the run,
    # verdicts only when a verdict flips
    a = _dump(tmp_path / "a.json", True, "00", 1.5)
    b = _dump(tmp_path / "b.json", passed, "ff", float("nan"))
    assert replay_plan.main(["diff", a, b]) == 1
    capsys.readouterr()
    assert replay_plan.main(["verdicts", a, b]) == code
    out = capsys.readouterr().out
    assert out.endswith(f"{code} of 2 runs differ\n")
    assert ("default/growth:" in out) == (code == 1)


def test_files_counts_the_runs_each_moved_file_differs_in(tmp_path, capsys):
    # growth.csv moves in both growth runs; other.csv, the continuity run and
    # a stat move nothing
    def dump(name, digest, stat):
        growth = {"files": {"growth.csv": digest, "other.csv": "11"}, "verdicts": [["e2_grows", True, {"ratio": stat}]]}
        records = {key: {**growth, "error": None} for key in ("default/growth", "trajectory/3/growth")}
        records["fields/0/continuity"] = {"files": {"residuals.csv": "22"}, "verdicts": [], "error": None}
        (tmp_path / name).write_text(json.dumps(records))
        return str(tmp_path / name)

    a, b = dump("a.json", "00", 1.5), dump("b.json", "ff", 2.5)
    assert replay_plan.main(["files", a, b]) == 1
    assert capsys.readouterr().out == "growth: growth.csv in 2 runs\n1 data files of 1 experiments differ\n"
    assert replay_plan.main(["files", a, a]) == 0
    assert capsys.readouterr().out == "0 data files of 0 experiments differ\n"
