import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrecovery
from qrecovery.cli import main
from qrecovery.reports import CSV_COLUMNS


def run(argv):
    return main(argv)


@pytest.fixture
def small_args(tmp_path):
    out = tmp_path / "report.json"
    return out, [
        "verify",
        "entropy-gain",
        "--seed",
        "7",
        "--trials",
        "5",
        "--out",
        str(out),
    ]


def test_verify_small_suite_exits_zero(small_args, capsys):
    out, argv = small_args
    assert run(argv) == 0
    text = capsys.readouterr().out
    assert "entropy-gain" in text and "wall time" in text
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["summary"]["all_hold"] is True
    assert report["config"]["master_seed"] == 7
    assert all(row["holds"] for row in report["checks"])
    # wall time never enters the report file
    assert "wall" not in out.read_text()


def test_same_seed_produces_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "info-gain", "--seed", "11", "--trials", "4"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_changes_report(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "entropy-gain", "--seed", "1", "--trials", "4", "--out", str(a)]) == 0
    assert run(["verify", "entropy-gain", "--seed", "2", "--trials", "4", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_negative_tolerance_exits_two(capsys):
    assert run(["verify", "entropy-gain", "--tol=-1"]) == 2
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value", [("--tol", "inf"), ("--tol", "nan"), ("--quad-halfwidth", "nan")]
)
def test_non_finite_number_exits_two(capsys, flag, value):
    # inf would forgive every row, nan would fail every row, and a nan
    # halfwidth would break the quadrature rule
    assert run(["verify", "info-gain-qsi", flag, value]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_unknown_suite_exits_two(capsys):
    assert run(["verify", "does-not-exist"]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_seed_zero_runs(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "entropy-gain", "--seed", "0", "--trials", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["master_seed"] == 0


def test_negative_seed_exits_two(capsys):
    assert run(["verify", "entropy-gain", "--seed", "-1", "--trials", "2"]) == 2
    assert "master_seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("master_seed", '"x"'),
        ("master_seed", "1.5"),
        ("master_seed", "true"),
        ("master_seed", "-3"),
        ("tol_override", '"x"'),
        ("tol_override", "true"),
        ("tol_override", "NaN"),
        ("tol_override", "Infinity"),
        ("quad_nodes", '"x"'),
        ("quad_nodes", "51.0"),
        ("quad_nodes", "true"),
        ("quad_halfwidth", '"x"'),
        ("quad_halfwidth", "false"),
        ("quad_halfwidth", "NaN"),
        ("quad_halfwidth", "Infinity"),
        ("bosonic_n_max", '"x"'),
        ("bosonic_n_max", "20.0"),
        ("bosonic_n_max", "true"),
        ("bosonic_guard", '"x"'),
        ("bosonic_guard", "true"),
        ("cpdp_isometric", '"no"'),
        ("cpdp_isometric", "1"),
        ("trials", "[1]"),
        ("trials", '{"entropy-gain": 1.7}'),
        ("trials", '{"entropy-gain": true}'),
        ("trials", '{"entropy-gain": "2"}'),
        ("trials", '{"bosonic": 3}'),
        ("dims", "3"),
        ("dims", "[2.9, 3.5]"),
        ("dims", "[2, true]"),
        ("dims", "[2, 3, 4]"),
        ("dims", '"2,3"'),
    ],
)
def test_config_field_of_wrong_type_exits_two(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    fields = {"trials": {"entropy-gain": 2}, key: json.loads(value)}
    cfg.write_text(json.dumps(fields))
    assert run(["verify", "entropy-gain", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and key in err


def test_trials_flag_leaves_bosonic_at_one(tmp_path):
    # the bosonic suite is one deterministic round, so the report must not echo 3
    out = tmp_path / "r.json"
    assert run(["verify", "bosonic", "--seed", "7", "--trials", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["trials"] == {"bosonic": 1}


@pytest.mark.parametrize(
    "text,needle",
    [
        ("[1, 2]", "JSON object"),
        ('[["master_seed", 3]]', "JSON object"),
        ('"verify"', "JSON object"),
        ('{"suites": 3}', "suites"),
        ('{"suites": "cpdp"}', "suites"),
    ],
)
@pytest.mark.parametrize("flags", [[], ["--trials", "2"]])
def test_config_document_of_wrong_shape_exits_two(tmp_path, capsys, text, needle, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(["verify", "all", "--config", str(cfg)] + flags) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and needle in err


def test_config_numeric_fields_accept_ints_and_floats(tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text('{"tol_override": 1, "quad_halfwidth": 8, "bosonic_guard": null, '
                   '"cpdp_isometric": false, "trials": {"entropy-gain": 2}}')
    assert run(["verify", "entropy-gain", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    config = json.loads(out.read_text())["config"]
    assert config["tol_override"] == 1 and config["quad_halfwidth"] == 8


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"wrong_key": 1}')
    assert run(["verify", "entropy-gain", "--config", str(cfg)]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"master_seed": 5, "trials": {"entropy-gain": 3}}')
    out = tmp_path / "r.json"
    assert run(["verify", "entropy-gain", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["master_seed"] == 9  # flag wins
    assert report["config"]["trials"]["entropy-gain"] == 3


def test_config_file_isometric_interactions(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"cpdp_isometric": true, "trials": {"cpdp": 3}}')
    out = tmp_path / "r.json"
    assert run(["verify", "cpdp", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["cpdp_isometric"] is True


def test_csv_output_has_fixed_columns(tmp_path):
    out = tmp_path / "rows.csv"
    assert run(
        ["verify", "entropy-gain", "--seed", "3", "--trials", "3", "--format", "csv", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) > 1


def test_quadrature_flags_accepted(tmp_path):
    out = tmp_path / "r.json"
    argv = [
        "verify",
        "disturbance",
        "--seed",
        "3",
        "--trials",
        "2",
        "--quad-nodes",
        "51",
        "--quad-halfwidth",
        "8",
        "--out",
        str(out),
    ]
    assert run(argv) == 0
    assert json.loads(out.read_text())["config"]["quad_nodes"] == 51


def test_report_merge(tmp_path):
    a, b, merged = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
    assert run(["verify", "entropy-gain", "--seed", "1", "--trials", "3", "--out", str(a)]) == 0
    assert run(["verify", "info-gain", "--seed", "1", "--trials", "3", "--out", str(b)]) == 0
    assert run(["report", "merge", str(a), str(b), "--out", str(merged)]) == 0
    data = json.loads(merged.read_text())
    n_a = len(json.loads(a.read_text())["checks"])
    n_b = len(json.loads(b.read_text())["checks"])
    assert len(data["checks"]) == n_a + n_b
    assert data["summary"]["all_hold"] is True


def test_sweep_bosonic_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep",
        "bosonic",
        "--n-max",
        "24",
        "--guard",
        "9",
        "--etas",
        "0.9",
        "--gains",
        "1.1",
        "--out",
        str(out),
    ]
    assert run(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    # loss, amp, and composition rows for each of the three states
    assert len(lines) == 1 + 3 * 3
    assert "leakage" in lines[1] or "leakage" in out.read_text()


def test_sweep_prints_guard_feasibility_table(tmp_path, capsys):
    from qrecovery import bosonic as bos

    argv = ["sweep", "bosonic", "--n-max", "24", "--guard", "9", "--etas", "0.8,0.99",
            "--gains", "1.1", "--out", str(tmp_path / "sweep.csv")]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "almost-unital guard-band feasibility (n_max=24, tol=1e-06)"
    trunc = bos.FockTruncation(24)
    for line, eta in zip(lines[2:4], (0.8, 0.99)):
        shown_eta, tail, measured, guard = line.split()
        assert float(shown_eta) == eta
        assert float(tail) == pytest.approx(bos.loss_identity_tail(eta, 24 - 9, 24), rel=1e-3)
        # the band-edge deviation of B_eta(I) is the analytic tail
        assert float(measured) == pytest.approx(float(tail), rel=1e-3)
        assert int(guard) == bos.recommended_guard(bos.GaussianChannelSpec("loss", trunc, eta=eta))


@pytest.mark.parametrize(
    "flags",
    [
        ["--n-max", "40", "--guard", "45"],
        ["--n-max", "40", "--guard", "-1"],
        ["--n-max", "3", "--guard", "0"],
        ["--etas", "1.5"],
        ["--etas", "0", "--n-max", "20", "--guard", "5"],
        ["--etas", "0.9,0", "--gains", "1.1"],
        ["--n-max", "20", "--guard", "5", "--etas", "0.9", "--gains", "nan"],
        ["--n-max", "20", "--guard", "5", "--etas", "0.9", "--gains", "inf"],
    ],
)
def test_sweep_invalid_config_exits_two(flags, capsys):
    assert run(["sweep", "bosonic", *flags]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_bosonic_n_max_lower_boundary(tmp_path, capsys):
    # the smallest accepted n_max runs the suite to a report; one below is invalid
    from qrecovery.campaigns import BOSONIC_MIN_N_MAX

    cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text(json.dumps({"bosonic_n_max": BOSONIC_MIN_N_MAX}))
    assert run(["verify", "bosonic", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    assert json.loads(out.read_text())["config"]["bosonic_n_max"] == BOSONIC_MIN_N_MAX
    cfg.write_text(json.dumps({"bosonic_n_max": BOSONIC_MIN_N_MAX - 1}))
    assert run(["verify", "bosonic", "--config", str(cfg)]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # SciPy is a test dependency only: neither a cold start of the CLI nor a search loads it
    code = (
        "import sys, numpy as np, qrecovery, qrecovery.cli\n"
        "from qrecovery import Channel, OptimizerBudget, minimal_entropy_gain\n"
        "minimal_entropy_gain(Channel((np.array([[0, 1], [1, 0]]),)), OptimizerBudget(2, 50), seed=1)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    src = str(Path(qrecovery.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
