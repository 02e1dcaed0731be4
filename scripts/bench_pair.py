"""Paired base/change runs of the benchmark, written to one BENCH file.

    python3 scripts/bench_pair.py --base HEAD --seed 11 --pairs 10 --out BENCH_9.json

Run from the repository root.  The base revision is extracted with
``git archive`` into a temporary directory, and the working tree (the
change: tracked and untracked files that git does not ignore) is copied
into a sibling one, so both sides run from the same kind of location.
For every workload in BENCHMARK.json, ``bench/run.py --trace 0`` runs
``--pairs`` times in each tree for BENCHMARK.json's ``run_seconds``,
alternating which tree goes first, and then ``TRACED_RUNS`` times with
``--trace 1`` in each tree, again alternating, for the per-layer values.
Each tree runs its own ``bench/``; this script writes only the ``--out``
file.

The file holds the machine, each side's median and quartiles of every
end-to-end metric over the pairs, the share of pairs the change won (lower
is better for every metric) and each per-layer value as the median over a
side's traced runs, with its change - base delta.  One traced run per side
cannot tell a 20% move of a layer's time from run-to-run noise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
TRACED_RUNS = 3


def machine() -> dict:
    import numpy
    import scipy

    sys.path.insert(0, str(ROOT / "bench"))
    import run

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": run.BLAS_THREADS,
    }


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, tree: Path) -> str:
    """Write the files of ``rev`` into the new directory ``tree``; returns its commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = tree.parent / "base.tar"
    git("archive", "--output", str(archive), commit)
    tree.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return commit


def copy_working_tree(tree: Path) -> None:
    """Copy the working tree's files, minus those git ignores, into the new directory ``tree``."""
    for name in git("ls-files", "--cached", "--others", "--exclude-standard", "-z").split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted in the working tree is skipped
            dst = tree / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``tree``; returns its final JSON line."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} printed nothing (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values) -> dict:
    """Median and quartiles (inclusive method) of a sample."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarize(base_runs, change_runs, base_traced, change_traced) -> dict:
    """One workload's entry of the BENCH file from its paired runs and each
    side's list of traced runs."""
    end_to_end = {}
    for name in END_TO_END:
        b = [r["metrics"][name]["value"] for r in base_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        end_to_end[name] = {
            "unit": base_runs[0]["metrics"][name]["unit"],
            "base": spread(b),
            "change": spread(c),
            "change_won": sum(y < x for x, y in zip(b, c)) / len(b),
        }
    per_layer = {}
    for name, entry in base_traced[0]["metrics"].items():
        b = statistics.median(r["metrics"][name]["value"] for r in base_traced)
        c = [r["metrics"][name]["value"] for r in change_traced if name in r["metrics"]]
        c = statistics.median(c) if c else None
        per_layer[name] = {
            "unit": entry["unit"], "base": b, "change": c,
            "delta": None if c is None else c - b,
        }
    return {
        "pairs": len(base_runs),
        "correct": {
            "base": all(r["correct"] for r in base_runs + base_traced),
            "change": all(r["correct"] for r in change_runs + change_traced),
        },
        "failed": {
            "base": sum(r["failed"] for r in base_runs),
            "change": sum(r["failed"] for r in change_runs),
        },
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = [w["name"] for w in declared["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", required=True, help="BENCH file to write")
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    seconds = declared["run_seconds"]
    out = {"machine": machine(), "seed": args.seed, "seconds": seconds}
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        out["base"] = extract(args.base, trees["base"])
        copy_working_tree(trees["change"])
        out["change"] = f"working tree at {git('rev-parse', 'HEAD')}"
        out["workloads"] = {}
        for workload in workloads:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(bench_run(trees[side], workload, args.seed, seconds, 0))
                walls = {s: runs[s][-1]["metrics"]["wall_s"]["value"] for s in order}
                print(f"{workload} pair {i + 1}/{args.pairs}: wall_s base {walls['base']:.3f}, "
                      f"change {walls['change']:.3f}", file=sys.stderr)
            traced = {"base": [], "change": []}
            for i in range(TRACED_RUNS):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    traced[side].append(bench_run(trees[side], workload, args.seed, seconds, 1))
            out["workloads"][workload] = summarize(
                runs["base"], runs["change"], traced["base"], traced["change"]
            )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
