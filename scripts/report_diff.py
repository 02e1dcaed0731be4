"""Row-by-row comparison of two ``qrecovery verify`` JSON reports.

    python3 scripts/report_diff.py A.json B.json

Rows are matched on (suite, check, trial) plus their order of appearance
among rows sharing that key.  For every check the script prints the number
of rows, how many moved (any lhs, rhs or aux value differs), and the largest
|lhs|, |rhs| and numeric aux change; then, for every aux value that moved,
its largest change.  Non-numeric aux values (flags, lists of different
length) that differ are shown as "changed".

Exit status: 0 when both reports hold the same rows with the same ``holds``
and ``tol``, whatever the values; 1 when the row sets differ or any
``holds`` or ``tol`` differs; 2 on a usage error.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict


def _number(value):
    """A report value as a float, or None when it is not numeric."""
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if value in ("inf", "-inf", "nan"):
        return float(value)
    return None


def _delta(a, b) -> float:
    """|a - b| for two report numbers, with equal infinities and NaNs at 0."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b)


def _leaves(value, path=()):
    """(path, leaf) pairs of a nested aux value; lists index their entries."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, path + (str(k),))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (f"[{i}]",))
    else:
        yield path, value


def keyed_rows(report: dict) -> dict:
    """Rows keyed by (suite, check, trial, occurrence)."""
    seen: dict = defaultdict(int)
    out = {}
    for row in report["checks"]:
        base = (row["suite"], row["check"], row["trial"])
        out[base + (seen[base],)] = row
        seen[base] += 1
    return out


def compare(a: dict, b: dict):
    """(per-check stats, per-(check, aux key) max change, list of problems)."""
    rows_a, rows_b = keyed_rows(a), keyed_rows(b)
    problems = [f"row only in A: {k[:3]}" for k in rows_a if k not in rows_b]
    problems += [f"row only in B: {k[:3]}" for k in rows_b if k not in rows_a]
    checks: dict = {}
    aux_moves: dict = {}
    for key, ra in rows_a.items():
        rb = rows_b.get(key)
        if rb is None:
            continue
        check = ra["check"]
        stat = checks.setdefault(check, {"rows": 0, "moved": 0, "lhs": 0.0, "rhs": 0.0, "aux": 0.0})
        stat["rows"] += 1
        for field in ("holds", "tol"):
            if ra[field] != rb[field]:
                problems.append(f"{field} differs in {key[:3]}: {ra[field]!r} vs {rb[field]!r}")
        moved = False
        for field, name in (("lhs_bits", "lhs"), ("rhs_bits", "rhs")):
            d = _delta(_number(ra[field]), _number(rb[field]))
            stat[name] = max(stat[name], d)
            moved = moved or ra[field] != rb[field]
        leaves_a, leaves_b = dict(_leaves(ra["aux"])), dict(_leaves(rb["aux"]))
        for path in sorted(set(leaves_a) | set(leaves_b)):
            va, vb = leaves_a.get(path), leaves_b.get(path)
            if va == vb:
                continue
            moved = True
            name = (check, ".".join(p for p in path if not p.startswith("[")))
            na, nb = _number(va), _number(vb)
            if na is None or nb is None or aux_moves.get(name) == "changed":
                aux_moves[name] = "changed"
            else:
                d = _delta(na, nb)
                aux_moves[name] = max(aux_moves.get(name, 0.0), d)
                stat["aux"] = max(stat["aux"], d)
        stat["moved"] += moved
    return checks, aux_moves, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    checks, aux_moves, problems = compare(*reports)
    print(f"{'check':34} {'rows':>5} {'moved':>5} {'max|dlhs|':>10} {'max|drhs|':>10} "
          f"{'max|daux|':>10}")
    for check, s in checks.items():
        print(f"{check:34} {s['rows']:5d} {s['moved']:5d} {s['lhs']:10.3g} {s['rhs']:10.3g} "
              f"{s['aux']:10.3g}")
    if aux_moves:
        print("\naux values that moved (max |d|):")
        for (check, key), d in sorted(aux_moves.items()):
            print(f"  {check}.{key}: {d if isinstance(d, str) else format(d, '.3g')}")
    for line in problems:
        print(f"DIFFERS: {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
