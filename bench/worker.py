"""One workload process: set up, optionally run the workload, check it.

Started by ``run.py`` in a fresh interpreter; not meant to be run by hand.
``--t0`` is the parent's monotonic clock reading just before it started this
process, so set-up time includes interpreter start-up.  The result goes to
the JSON file named by ``--result``.
"""

import argparse
import json
import resource
import sys
import time

import workloads


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", help="write spans to this sidecar file and report layer metrics")
    args = p.parse_args()

    tag = ".traced" if args.trace else ""
    wl = workloads.make(args.workload, args.seed, args.out_dir, tag)
    wl.setup()
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.setup_only:
        spans = None
        if args.trace:
            import tracer

            spans = tracer.Tracer()
            spans.install(tracer.targets())
        started = time.perf_counter()
        wl.run()
        result["wall_s"] = time.perf_counter() - started
        if spans is not None:
            spans.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["output"] = wl.write_output()
        attempted, failed, problems = wl.check()
        result.update(attempted=attempted, failed=failed, problems=problems)
        if spans is not None:
            spans.save(args.trace)
            result["layers"] = tracer.layer_metrics(spans.aggregate())
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
