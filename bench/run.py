"""Benchmark of the qrecovery verification harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each round of a workload runs in a fresh
interpreter (``worker.py``) started from this process, one at a time, with
the program imported from ``src/``.  Rounds repeat until ``--seconds`` of
measured time have passed; a run always makes at least one whole round.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over extra
cold starts that only set up, plus each round's own set-up), ``wall_s`` and
``peak_rss_mb`` (medians over rounds).  ``--trace 1`` makes one untraced and
one traced round, requires their output files to be byte-identical, and
prints the per-layer metrics of the traced round.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Outputs, traces and per-round results are left in
``.bench_out/<workload>/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Extra cold starts per run that only set up; one sample per start is too
# noisy to hold a tight bound, the median of several is not.
SETUP_PROBES = 5
# BLAS and OpenMP threads for the program.  One thread keeps runs steady on a
# shared 2-core machine and makes the figures a single-core baseline.
BLAS_THREADS = 1
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    # Byte-code caching on, as for an installed package: the warm-up start
    # compiles src/ once, and set-up time does not depend on the caller's
    # environment.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, out_dir: Path, name: str, deadline: float, extra=()) -> dict:
    """Run one worker process to completion and return its result."""
    result = out_dir / f"{name}.result.json"
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--t0", repr(t0),
        "--out-dir", str(out_dir), "--result", str(result), *extra,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{name}: worker exceeded the run deadline")
    if code != 0:
        raise SystemExit(f"{name}: worker exited with code {code}")
    with open(result, "r", encoding="utf-8") as fh:
        return json.load(fh)


def report(correct: bool, rounds, metrics: dict) -> bool:
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        for line in r["problems"][:20]:
            print(f"CHECK FAILED: {line}")
    correct = correct and not any(r["problems"] for r in rounds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return correct


def run_untraced(args, out_dir: Path, deadline: float) -> bool:
    spawn(args, out_dir, "warmup", deadline, ["--setup-only"])
    setup = [spawn(args, out_dir, f"probe{i}", deadline, ["--setup-only"])["setup_s"]
             for i in range(SETUP_PROBES)]
    rounds = []
    measured = 0.0
    while not rounds or measured < args.seconds:
        r = spawn(args, out_dir, f"round{len(rounds)}", deadline)
        rounds.append(r)
        setup.append(r["setup_s"])
        measured += r["wall_s"]
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} round(s), "
          f"BLAS threads {BLAS_THREADS}")
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
    print("wall_s per round: " + " ".join(f"{r['wall_s']:.4f}" for r in rounds))
    return report(True, rounds, {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                        "unit": "MB"},
    })


def run_traced(args, out_dir: Path, deadline: float) -> bool:
    plain = spawn(args, out_dir, "untraced", deadline)
    sidecar = out_dir / "trace.npz"
    traced = spawn(args, out_dir, "traced", deadline, ["--trace", str(sidecar)])
    same = Path(plain["output"]).read_bytes() == Path(traced["output"]).read_bytes()
    if not same:
        print(f"CHECK FAILED: traced output {traced['output']} differs from {plain['output']}")
    print(f"{args.workload}: seed {args.seed}, BLAS threads {BLAS_THREADS}, "
          f"untraced wall_s {plain['wall_s']:.4f}, traced wall_s {traced['wall_s']:.4f}, "
          f"tracing overhead {traced['wall_s'] - plain['wall_s']:.4f} s; spans in {sidecar}")
    layers = traced["layers"]
    return report(same, [plain, traced], {
        name: {"value": layers[name], "unit": tracer.metric_unit(name)}
        for name in tracer.metric_names()
    })


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "qrecovery" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'qrecovery'} is missing", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = run_traced(args, out_dir, deadline) if args.trace else run_untraced(args, out_dir, deadline)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
