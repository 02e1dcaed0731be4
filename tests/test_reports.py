import json
import math

import pytest

from qrecovery.reports import TOLERANCES, CheckReport, _escape, dumps_json, report_row, summarize


def test_summarize_keeps_infinite_worst_slack():
    # rhs = inf (a support violation in rel_entropy) gives slack -inf
    violated = report_row(CheckReport("entropy-gain", lhs=0.3, rhs=math.inf, tol=1e-8), "a", 0)
    unbounded = report_row(CheckReport("entropy-gain", lhs=math.inf, rhs=0.3, tol=1e-8), "b", 0)
    summary = summarize([violated, unbounded])
    assert summary["suites"]["a"]["worst_slack_bits"] == -math.inf
    assert summary["suites"]["b"]["worst_slack_bits"] == math.inf
    assert summary["total_passes"] == 1 and not summary["all_hold"]
    assert '"worst_slack_bits":"-inf"' in dumps_json(summary)


def test_escaped_strings_round_trip_through_json():
    specials = ['"', "\\"] + [chr(c) for c in range(0x20)]
    strings = ["", "plain ascii", "ünïcode ∞ √F", "\x7f"] + [f"a{ch}b" for ch in specials]
    strings.append("".join(specials))
    for s in strings:
        assert json.loads(_escape(s)) == s
    row = {s: s for s in strings}
    assert json.loads(dumps_json(row)) == row


def test_tolerance_defaults_to_the_table_and_must_be_finite():
    assert CheckReport("recovery-fid", 1.0, 0.5).tol == TOLERANCES["recovery-fid"]
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            CheckReport("recovery-fid", 1.0, 0.5, tol=tol)
