"""Byte-for-byte comparison of the reports of a base revision and the working tree.

    python3 scripts/same_reports.py --base HEAD

Run from the repository root.  The base revision is extracted with
``git archive`` into a temporary directory, as ``scripts/bench_pair.py``
extracts it, and the working tree runs from where it is.  Each side writes
the same reports with ``qrecovery verify``:

- ``verify all`` at seeds 13, 7 and 1;
- ``verify all`` at seed 13 with ``--tol 0.5``;
- ``verify cpdp`` with ``{"cpdp_isometric": true, "master_seed": 5}``.

Each pair of reports is compared with ``cmp``; for a pair that differs, the
output of ``scripts/report_diff.py`` on it is printed.  Exit status 0 when
every pair is byte-identical, 1 when any pair differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pair import ROOT, extract

REPORTS = {
    "all-seed13": ["all", "--seed", "13"],
    "all-seed7": ["all", "--seed", "7"],
    "all-seed1": ["all", "--seed", "1"],
    "all-seed13-tol0.5": ["all", "--seed", "13", "--tol", "0.5"],
    "cpdp-isometric": ["cpdp", "--config", "{config}"],
}
ISOMETRIC_CONFIG = {"cpdp_isometric": True, "master_seed": 5}


def write_report(tree: Path, args: list, out: Path) -> None:
    """``qrecovery verify`` of ``tree``'s own ``src/`` into ``out``; a report
    with failing checks (exit 1) is still a report."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "qrecovery.cli", "verify", *args, "--out", str(out)]
    proc = subprocess.run(cmd, cwd=out.parent, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not out.is_file():
        raise SystemExit(f"{' '.join(cmd)} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    args = p.parse_args()

    differ = []
    with tempfile.TemporaryDirectory(prefix="same_reports_") as tmp:
        tmp = Path(tmp)
        config = tmp / "isometric.json"
        config.write_text(json.dumps(ISOMETRIC_CONFIG), encoding="utf-8")
        trees = {"base": tmp / "base", "change": ROOT}
        print(f"base {extract(args.base, trees['base'])}, change: the working tree")
        for side in trees:
            (tmp / f"{side}-out").mkdir()
        for name, verify_args in REPORTS.items():
            verify_args = [a.replace("{config}", str(config)) for a in verify_args]
            outs = {side: tmp / f"{side}-out" / f"{name}.json" for side in trees}
            for side, tree in trees.items():
                write_report(tree, verify_args, outs[side])
            same = subprocess.run(["cmp", "-s", str(outs["base"]), str(outs["change"])]).returncode == 0
            print(f"{name}: {'identical' if same else 'DIFFERENT'}")
            if not same:
                differ.append(name)
                diff = subprocess.run(
                    [sys.executable, str(ROOT / "scripts" / "report_diff.py"),
                     str(outs["base"]), str(outs["change"])],
                    capture_output=True, text=True,
                )
                print(diff.stdout + diff.stderr)
    print("all reports byte-identical" if not differ else f"{len(differ)} report(s) differ: {', '.join(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
