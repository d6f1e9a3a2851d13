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
