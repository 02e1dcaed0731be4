import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)


def _row(check, trial, rhs, holds=True, aux=None):
    return {
        "suite": "s", "check": check, "trial": trial, "seed": 1, "dims": [2],
        "lhs_bits": 1.0, "rhs_bits": rhs, "slack_bits": 0.0, "holds": holds,
        "tol": 1e-8, "aux": aux or {},
    }


BASE = {"checks": [
    _row("a", 0, 0.5, aux={"dev": 1e-15, "flag": False}),
    _row("a", 1, 0.25, aux={"dev": 2e-15, "flag": False}),
    _row("b", 0, "inf"),
]}


def _run(tmp_path, a, b, capsys):
    paths = []
    for name, report in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        paths.append(str(path))
    code = report_diff.main(paths)
    return code, capsys.readouterr().out


def test_moved_values_are_counted_and_exit_zero(tmp_path, capsys):
    moved = copy.deepcopy(BASE)
    moved["checks"][1]["rhs_bits"] = 0.25 + 3e-15
    moved["checks"][1]["aux"]["dev"] = 5e-15
    moved["checks"][0]["aux"]["flag"] = True
    code, out = _run(tmp_path, BASE, moved, capsys)
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("a "))
    assert line.split()[1:3] == ["2", "2"]
    assert float(line.split()[4]) == pytest.approx(3e-15, rel=0.01)
    assert "a.dev: 3e-15" in out
    assert "a.flag: changed" in out
    assert "b " in out and "DIFFERS" not in out


@pytest.mark.parametrize("edit", ["holds", "tol", "drop"])
def test_row_set_holds_or_tol_difference_exits_one(tmp_path, capsys, edit):
    other = copy.deepcopy(BASE)
    if edit == "drop":
        other["checks"].pop()
    else:
        other["checks"][0][edit] = False if edit == "holds" else 1e-6
    code, out = _run(tmp_path, BASE, other, capsys)
    assert code == 1
    assert "DIFFERS" in out


def test_identical_reports(tmp_path, capsys):
    code, out = _run(tmp_path, BASE, BASE, capsys)
    assert code == 0
    assert "aux values that moved" not in out
