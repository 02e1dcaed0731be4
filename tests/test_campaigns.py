"""Row provenance: run_suite alone stamps each campaign row's seed and
tolerance, and every row regenerates from its family's stream path."""

from collections import Counter
from dataclasses import replace

import pytest

from qrecovery import bosonic as bos
from qrecovery.campaigns import FAMILIES, SUITES, CampaignConfig, run_suite
from qrecovery.qcore import random_channel, random_density, stream
from qrecovery.reports import TOLERANCES, dumps_json, report_row
from qrecovery.theorems import check_entropy_gain

import oracles

STAMPED = CampaignConfig(master_seed=7, tol_override=0.5, trials=dict.fromkeys(SUITES, 1))


@pytest.mark.parametrize("suite", SUITES)
def test_run_suite_stamps_seed_and_tolerance(suite):
    rows = run_suite(STAMPED, suite)
    assert rows
    assert all(r["suite"] == suite and r["seed"] == 7 and r["tol"] == 0.5 for r in rows)


def test_checks_keep_their_own_tolerance_without_override():
    rows = run_suite(CampaignConfig(master_seed=7, trials={"info-gain": 1}), "info-gain")
    assert {r["check"]: r["tol"] for r in rows}["negative-groenewold-witness"] == 0.0
    assert {r["tol"] for r in rows} == {0.0, 1e-8}


def test_every_row_takes_its_tolerance_from_the_table():
    cfg = CampaignConfig(trials=dict.fromkeys(SUITES, 1))
    rows = [r for s in SUITES for r in run_suite(cfg, s)]
    assert all(r["tol"] == TOLERANCES[r["check"]] for r in rows)
    assert {r["check"] for r in rows} == set(TOLERANCES)


def test_direct_checks_carry_no_seed():
    rng = stream(50, 0)
    rep = check_entropy_gain(random_density(2, 2, rng), random_channel(2, 2, 2, rng))
    spec = bos.GaussianChannelSpec("loss", bos.FockTruncation(16), eta=0.9)
    assert rep.seed is None
    assert bos.check_almost_unital(spec).seed is None


def test_row_regenerates_from_its_stream_path():
    # entropy-gain is suite 0 and its random-channel family is check 0
    trial = 2
    rows = run_suite(CampaignConfig(master_seed=7, trials={"entropy-gain": 3}), "entropy-gain")
    row = [r for r in rows if r["check"] == "entropy-gain" and r["trial"] == trial][0]
    rng = stream(7, SUITES.index("entropy-gain"), 0, trial)
    d = int(rng.integers(2, 5))
    rho = random_density(d, int(rng.integers(1, d + 1)), rng)
    channel = random_channel(d, d, int(rng.integers(1, 5)), rng)
    rep = check_entropy_gain(rho, channel)
    assert (row["lhs_bits"], row["rhs_bits"], row["dims"]) == (rep.lhs, rep.rhs, [d])


def test_every_family_row_regenerates_from_its_stream_path():
    # trial 0 and the last trial of every family, drawn alone from its stream
    # path, finished and run through the core on its own, give the campaign's
    # rows byte for byte
    cfg = CampaignConfig(master_seed=13)
    rows = {}
    for suite in {fam.suite for fam in FAMILIES}:
        for row in run_suite(cfg, suite):
            rows[(suite, row["check"], row["trial"])] = dumps_json(row)
    offset = Counter()  # a check's trials run on from those of earlier families
    for fam in FAMILIES:
        n = oracles.family_trials(cfg, fam)
        for trial in sorted({0, n - 1}):
            (instance,) = fam.finish([oracles.family_draw(cfg, fam, trial)])
            (reps,) = fam.core(*(a[None] for a in instance), *((cfg.quad(),) if fam.quad else ()))
            reps = reps if isinstance(reps, list) else [reps]
            for rep in reps:
                key = (fam.suite, rep.name, trial + offset[(fam.suite, rep.name)])
                row = report_row(replace(rep, seed=13), fam.suite, key[2])
                assert rows.pop(key) == dumps_json(row), key
        offset.update({(fam.suite, rep.name): n for rep in reps})
