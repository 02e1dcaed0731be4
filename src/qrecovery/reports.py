"""Check reports and their deterministic JSON/CSV serialization.

Every inequality evaluation is recorded as a :class:`CheckReport` with
``slack = lhs - rhs`` and ``holds`` iff ``slack >= -tol``.  Deviation-style
checks (a quantity that should be ~0) are reported with ``lhs = 0`` and
``rhs = deviation`` so the same convention applies.  :data:`TOLERANCES` is
the one table of the campaign rows' tolerances.

Serialization is byte-deterministic: field order is fixed, floats are written
with 17 significant digits, non-finite floats become the strings "inf",
"-inf", "nan".
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

__all__ = [
    "SCHEMA_VERSION",
    "TOLERANCES",
    "CheckReport",
    "report_row",
    "CSV_COLUMNS",
    "dumps_json",
    "write_json",
    "write_csv",
    "merge_reports",
]

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "suite",
    "check",
    "trial",
    "seed",
    "dims",
    "lhs_bits",
    "rhs_bits",
    "slack_bits",
    "holds",
    "aux",
)


# Tolerance in bits of every campaign row, by row name and grouped by suite;
# a report built without a tol takes its name's entry.
TOLERANCES = {
    "entropy-gain": 1e-8, "entropy-gain-equality": 1e-8, "entropy-gain-recovery": 1e-8,
    "cond-entropy-gain": 1e-8,
    "recovery-fid": 1e-6, "recovery-stronger": 1e-5, "petz-fixed-point": 1e-9,
    "cmi-recovery": 1e-6, "cmi-recovery-markov": 1e-6,
    "info-gain-no-qsi": 1e-8, "groenewold-vs-mutual-info": 1e-8, "info-gain-upper": 1e-8,
    "negative-groenewold-witness": 0.0, "efficient-second-law": 1e-8,
    "info-gain-qsi": 1e-5, "qsi-recovery-instrument-tp": 1e-8,
    "entropic-disturbance": 1e-6, "disturbance-commuting": 1e-6,
    "disturbance-commuting-chi": 1e-9, "disturbance-commuting-fidelity": 1e-8,
    "cpdp-forward": 1e-6, "cpdp-converse": 1e-8, "cpdp-forward-product": 1e-6,
    "cpdp-embedding-consistency": 1e-9,
    "bosonic-almost-unital-loss": 1e-6, "bosonic-almost-unital-amp": 1e-6,
    "bosonic-almost-unital-compose": 1e-6,
    "bosonic-adjoint-loss": 1e-6, "bosonic-adjoint-amp": 1e-6, "bosonic-adjoint-compose": 1e-6,
    "bosonic-entropy-gain-loss": 2e-6, "bosonic-entropy-gain-amp": 2e-6,
    "bosonic-entropy-gain-compose": 2e-6,
    "bosonic-loss-semigroup": 1e-6,
}


@dataclass(frozen=True)
class CheckReport:
    """Record of one inequality evaluation, in bits.

    ``tol`` defaults to the entry for ``name`` in :data:`TOLERANCES`; it must
    be finite and nonnegative.
    """

    name: str
    lhs: float
    rhs: float
    tol: float | None = None
    seed: int | None = None
    dims: tuple = ()
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", float(self.rhs))
        tol = TOLERANCES[self.name] if self.tol is None else float(self.tol)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return self.slack >= -self.tol


def report_row(report: CheckReport, suite: str, trial: int) -> dict:
    """Flatten a report into the fixed-order row used by both file formats."""
    return {
        "suite": suite,
        "check": report.name,
        "trial": int(trial),
        "seed": report.seed,
        "dims": list(report.dims),
        "lhs_bits": report.lhs,
        "rhs_bits": report.rhs,
        "slack_bits": report.slack,
        "holds": report.holds,
        "tol": report.tol,
        "aux": report.aux,
    }


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _dump(obj, out: list) -> None:
    if type(obj).__module__ == "numpy" and hasattr(obj, "item"):
        obj = obj.item()
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(_escape(str(k)))
            out.append(":")
            _dump(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _dump(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _escape(s: str) -> str:
    if _NEEDS_ESCAPE.search(s) is None:
        return '"' + s + '"'
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def dumps_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit floats."""
    out: list = []
    _dump(obj, out)
    return "".join(out)


def write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps_json(obj))
        fh.write("\n")


def _csv_cell(value):
    if type(value).__module__ == "numpy" and hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float):
        return _fmt_float(value).strip('"')
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return dumps_json(value)
    return str(value)


def write_csv(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in CSV_COLUMNS])


def summarize(rows) -> dict:
    """Per-suite pass counts and worst slack, plus campaign-level totals."""
    suites: dict = {}
    for row in rows:
        s = suites.setdefault(
            row["suite"], {"trials": 0, "passes": 0, "worst_slack_bits": math.inf}
        )
        s["trials"] += 1
        s["passes"] += 1 if row["holds"] else 0
        s["worst_slack_bits"] = min(s["worst_slack_bits"], row["slack_bits"])
    total = len(rows)
    passes = sum(1 for r in rows if r["holds"])
    return {
        "suites": suites,
        "total_checks": total,
        "total_passes": passes,
        "all_hold": passes == total,
    }


def merge_reports(reports: list) -> dict:
    """Merge run reports: concatenate check rows, recompute the summary."""
    if not reports:
        raise ValueError("nothing to merge")
    rows = []
    configs = []
    for rep in reports:
        rows.extend(rep["checks"])
        configs.append(rep.get("config"))
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {"merged_from": configs},
        "checks": rows,
        "summary": summarize(rows),
    }
