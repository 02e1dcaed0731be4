"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All randomized campaigns reuse the default deterministic configuration that
the CLI runs, so these assertions cover exactly what `qrecovery verify all`
executes.  Criterion 8 checks the truncated-ladder identity B_eta(I) = I/eta
on the pinned guard band (n_max=40, guard=15) for the full parameter grid;
for eta in {0.7, 0.8} the analytic truncation tail exceeds the 1e-6 tolerance
(0.198 and 4.9e-3 at the band edge), so those two sub-checks fail for a
provable reason documented in the decisions ledger.  The check itself flags
them truncation-dominated.
"""

import math
import sys
import time

import pytest

from qrecovery import bosonic as bos
from qrecovery.campaigns import SUITES, CampaignConfig, run_suite
from qrecovery.cli import build_report
from qrecovery.qcore import random_channel, stream
from qrecovery.reports import dumps_json
from qrecovery.theorems import OptimizerBudget, minimal_entropy_gain

CONFIG = CampaignConfig()


@pytest.fixture(scope="module")
def campaign():
    """Default campaign, one run per suite, with wall times."""
    results = {}
    for suite in SUITES:
        started = time.perf_counter()
        rows = run_suite(CONFIG, suite)
        results[suite] = (rows, time.perf_counter() - started)
    return results


def _select(rows, check):
    return [r for r in rows if r["check"] == check]


@pytest.fixture
def announce(capfd):
    """Print outside pytest capture so every criterion line reaches the console."""

    def _announce(line):
        with capfd.disabled():
            print(line)
            sys.stdout.flush()

    return _announce


def _finish(announce, num, desc, failures, runtime=None, budget=None):
    ok = not failures
    if runtime is not None and budget is not None and runtime > budget:
        ok = False
        failures = list(failures) + [f"runtime {runtime:.1f}s exceeds {budget}s"]
    stamp = f" ({runtime:.1f}s)" if runtime is not None else ""
    announce(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{stamp}")
    assert ok, f"criterion {num}: " + "; ".join(str(f) for f in failures[:10])


def test_criterion_1_entropy_gain(campaign, announce):
    rows, runtime = campaign["entropy-gain"]
    failures = []
    main = _select(rows, "entropy-gain")
    if len(main) != 200:
        failures.append(f"expected 200 trials, got {len(main)}")
    failures += [f"trial {r['trial']} slack {r['slack_bits']}" for r in main if r["slack_bits"] < -1e-8]
    equality = _select(rows, "entropy-gain-equality")
    if not equality or abs(equality[0]["slack_bits"]) > 1e-8:
        failures.append("dephasing/|+> instance is not an equality within 1e-8")
    _finish(
        announce,
        1,
        "200 random CPTP entropy-gain checks at 1e-8 plus the dephasing equality",
        failures,
        runtime,
        10.0,
    )


def test_criterion_2_recoverability(campaign, announce):
    rows, runtime = campaign["recovery"]
    failures = []
    fid = _select(rows, "recovery-fid")
    if len(fid) != 100:
        failures.append(f"expected 100 recovery-fid trials, got {len(fid)}")
    failures += [f"recovery-fid trial {r['trial']}" for r in fid if r["slack_bits"] < -1e-6]
    petz = _select(rows, "petz-fixed-point")
    failures += [
        f"petz fixed-point trial {r['trial']} deviation {r['rhs_bits']}"
        for r in petz
        if r["rhs_bits"] > 1e-9
    ]
    _finish(
        announce,
        2,
        "100 integrated-recovery inequalities at 1e-6 with Petz fixed points at 1e-9",
        failures,
        runtime,
        60.0,
    )


def test_criterion_3_cmi_recovery(campaign, announce):
    rows, runtime = campaign["recovery"]
    failures = []
    cmi_rows = _select(rows, "cmi-recovery")
    if len(cmi_rows) != 100:
        failures.append(f"expected 100 cmi-recovery trials, got {len(cmi_rows)}")
    failures += [f"cmi trial {r['trial']}" for r in cmi_rows if r["slack_bits"] < -1e-6]
    markov = _select(rows, "cmi-recovery-markov")
    failures += [
        f"markov trial {r['trial']} infidelity {r['rhs_bits']}"
        for r in markov
        if r["rhs_bits"] > 1e-6
    ]
    _finish(
        announce,
        3,
        "100 tripartite CMI-recovery checks at 1e-6 with exact Markov recovery",
        failures,
        runtime,
        60.0,
    )


def test_criterion_4_information_gain(campaign, announce):
    rows, runtime = campaign["info-gain"]
    failures = []
    thm2 = _select(rows, "info-gain-no-qsi")
    if len(thm2) != 100:
        failures.append(f"expected 100 trials, got {len(thm2)}")
    for r in thm2:
        if r["slack_bits"] < -1e-8:
            failures.append(f"no-QSI trial {r['trial']}")
        if "per_outcome_sqrt_fid_uhlmann" not in r["aux"]:
            failures.append(f"trial {r['trial']} missing Uhlmann witnesses")
        elif r["aux"]["uhlmann_vs_fidelity_max_dev"] > 1e-8:
            failures.append(f"trial {r['trial']} Uhlmann witness off by {r['aux']['uhlmann_vs_fidelity_max_dev']}")
    groen = _select(rows, "groenewold-vs-mutual-info")
    failures += [
        f"Groenewold mismatch {r['rhs_bits']} in trial {r['trial']}"
        for r in groen
        if r["rhs_bits"] > 1e-8
    ]
    witness = _select(rows, "negative-groenewold-witness")
    if not witness or not witness[0]["holds"]:
        failures.append("no inefficient instrument with negative entropy reduction")
    failures += [
        f"upper-bound trial {r['trial']}"
        for r in _select(rows, "info-gain-upper")
        if r["slack_bits"] < -1e-8
    ]
    _finish(
        announce,
        4,
        "measurement info-gain bounds with Uhlmann witnesses, Groenewold identity, negative-gain witness",
        failures,
        runtime,
        120.0,
    )


def test_criterion_5_information_gain_qsi(campaign, announce):
    rows, runtime = campaign["info-gain-qsi"]
    failures = []
    main = _select(rows, "info-gain-qsi")
    if len(main) != 50:
        failures.append(f"expected 50 trials, got {len(main)}")
    failures += [f"QSI trial {r['trial']}" for r in main if r["slack_bits"] < -1e-5]
    tp = _select(rows, "qsi-recovery-instrument-tp")
    failures += [
        f"recovery family TP deviation {r['rhs_bits']} in trial {r['trial']}"
        for r in tp
        if r["rhs_bits"] > 1e-8
    ]
    _finish(
        announce,
        5,
        "50 QSI information-gain checks at 1e-5 with trace-preserving recovery families",
        failures,
        runtime,
        300.0,
    )


def test_criterion_6_entropic_disturbance(campaign, announce):
    rows, runtime = campaign["disturbance"]
    failures = []
    main = _select(rows, "entropic-disturbance")
    if len(main) != 100:
        failures.append(f"expected 100 trials, got {len(main)}")
    for r in main:
        if r["slack_bits"] < -1e-6:
            failures.append(f"trial {r['trial']} slack {r['slack_bits']}")
        if r["lhs_bits"] < -1e-9:
            failures.append(f"trial {r['trial']} negative Holevo loss")
    commuting = _select(rows, "disturbance-commuting-fidelity")
    failures += [
        f"commuting-case infidelity {r['rhs_bits']}" for r in commuting if r["rhs_bits"] > 1e-8
    ]
    _finish(
        announce,
        6,
        "100 Holevo-loss recovery checks at 1e-6 with exact commuting-case recovery",
        failures,
        runtime,
        120.0,
    )


def test_criterion_7_cp_dp(campaign, announce):
    rows, runtime = campaign["cpdp"]
    failures = []
    forward = _select(rows, "cpdp-forward")
    if len(forward) != 50:
        failures.append(f"expected 50 forward trials, got {len(forward)}")
    failures += [f"forward trial {r['trial']}" for r in forward if r["slack_bits"] < -1e-6]
    product = _select(rows, "cpdp-forward-product")
    failures += [
        f"product-environment infidelity {r['rhs_bits']}"
        for r in product
        if r["rhs_bits"] > 1e-6
    ]
    converse = _select(rows, "cpdp-converse")
    failures += [f"converse trial {r['trial']}" for r in converse if r["slack_bits"] < -1e-8]
    _finish(
        announce,
        7,
        "50 forward reduced-dynamics pipelines at 1e-6 plus AFW converse at 1e-8",
        failures,
        runtime,
        120.0,
    )


def test_criterion_8_bosonic(campaign, announce):
    rows, bosonic_runtime = campaign["bosonic"]
    started = time.perf_counter()
    failures = []
    trunc = bos.FockTruncation(40)
    # almost-unital identity for the loss grid at the pinned guard band of 15
    for eta in (0.7, 0.8, 0.9, 0.99):
        spec = bos.GaussianChannelSpec("loss", trunc, eta=eta)
        rep = bos.check_almost_unital(spec, n_guard=15)
        assert rep.tol == 1e-6
        if not rep.holds:
            failures.append(
                f"B_eta(I) identity at eta={eta}: deviation {rep.rhs:.3e} on guard band "
                f"(analytic truncation tail {rep.aux['analytic_tail']:.3e}; see decisions ledger)"
            )
    # adjoint relations and entropy-gain inequalities from the campaign rows
    for r in rows:
        if r["check"].startswith("bosonic-adjoint") and r["rhs_bits"] > 1e-6:
            failures.append(f"adjoint relation {r['check']} deviates {r['rhs_bits']}")
        if r["check"].startswith("bosonic-entropy-gain") and r["slack_bits"] < -1e-5:
            failures.append(f"{r['check']} {r['aux']}")
    runtime = bosonic_runtime + (time.perf_counter() - started)
    _finish(
        announce,
        8,
        "bosonic identities on the guarded subspace at 1e-6 and entropy gains at 1e-5",
        failures,
        runtime,
        120.0,
    )


def test_criterion_9_minimal_entropy_gain_bounds(announce):
    started = time.perf_counter()
    failures = []
    for trial in range(20):
        rng = stream(CONFIG.master_seed, 90, trial)
        d = int(rng.integers(2, 4))
        ch = random_channel(d, d, int(rng.integers(1, 5)), rng)
        res = minimal_entropy_gain(ch, OptimizerBudget(), seed=rng)
        if not (-math.log2(d) - 1e-8 <= res.value <= 1e-8):
            failures.append(f"trial {trial}: value {res.value} outside [-log2({d}), 0]")
    runtime = time.perf_counter() - started
    _finish(
        announce,
        9,
        "20 optimized entropy gains inside [-log2(d) - 1e-8, 1e-8]",
        failures,
        runtime,
        120.0,
    )


def test_criterion_10_determinism(campaign, announce, tmp_path):
    started = time.perf_counter()
    report_a = {
        "schema_version": 1,
        "config": CONFIG.to_dict(),
        "checks": [row for suite in SUITES for row in campaign[suite][0]],
        "summary": None,
    }
    from qrecovery.reports import summarize

    report_a["summary"] = summarize(report_a["checks"])
    report_b = build_report(CONFIG)
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    a_path.write_text(dumps_json(report_a) + "\n")
    b_path.write_text(dumps_json(report_b) + "\n")
    failures = []
    if a_path.read_bytes() != b_path.read_bytes():
        failures.append("two runs of the default campaign produced different JSON bytes")
    if not report_b["summary"]["all_hold"]:
        failures.append("the default campaign does not exit clean")
    runtime = time.perf_counter() - started
    _finish(
announce,
10, "byte-identical JSON reports for identical config and seed", failures, runtime)
