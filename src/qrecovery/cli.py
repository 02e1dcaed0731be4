"""Campaign runner CLI.

Subcommands:

    qrecovery verify <suite>|all [flags]   run check suites, write a report
    qrecovery sweep bosonic [flags]        parameter sweep, CSV output
    qrecovery report merge --out F in...   merge JSON reports

Exit codes: 0 every check holds, 1 at least one check failed, 2 invalid
configuration.  Reports are a pure function of the configuration; wall time
is shown on the console and deliberately kept out of the report files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import bosonic as bos
from .campaigns import SUITES, CampaignConfig, ConfigError, bosonic_specs, bosonic_states, run_campaign
from .reports import SCHEMA_VERSION, merge_reports, report_row, summarize, write_csv, write_json

__all__ = ["main", "build_report"]


def build_report(cfg: CampaignConfig) -> dict:
    rows = run_campaign(cfg)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "checks": rows,
        "summary": summarize(rows),
    }


def _add_verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--config", help="JSON config file; explicit flags win")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--trials", type=int, help="trials per selected suite (bosonic always makes one)")
    p.add_argument("--dims", help="dimension range lo,hi for random instances")
    p.add_argument("--tol", type=float, help="override every check tolerance")
    p.add_argument(
        "--quad-nodes", type=int,
        help="quadrature node count (odd) of recovery-stronger and info-gain-qsi",
    )
    p.add_argument(
        "--quad-halfwidth", type=float,
        help="quadrature truncation half-width of recovery-stronger and info-gain-qsi",
    )
    p.add_argument("--out", help="report file path")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _config_from_args(args) -> CampaignConfig:
    fields: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            fields = json.load(fh)
        if not isinstance(fields, dict):
            raise ConfigError(f"config file must hold a JSON object, got {type(fields).__name__}")
    if args.suite != "all":
        fields["suites"] = [args.suite]
    elif "suites" not in fields:
        fields["suites"] = list(SUITES)
    if args.seed is not None:
        fields["master_seed"] = args.seed
    if args.trials is not None:
        # the bosonic suite is one deterministic round whatever the count
        fields["trials"] = dict.fromkeys((s for s in SUITES if s != "bosonic"), args.trials)
    if args.dims is not None:
        parts = [int(x) for x in args.dims.split(",")]
        if len(parts) == 1:
            parts = [parts[0], parts[0]]
        fields["dims"] = parts
    if args.tol is not None:
        fields["tol_override"] = args.tol
    if args.quad_nodes is not None:
        fields["quad_nodes"] = args.quad_nodes
    if args.quad_halfwidth is not None:
        fields["quad_halfwidth"] = args.quad_halfwidth
    allowed = set(CampaignConfig.__dataclass_fields__)
    unknown = set(fields) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return CampaignConfig(**fields)


def _cmd_verify(args) -> int:
    try:
        cfg = _config_from_args(args)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    report = build_report(cfg)
    elapsed = time.perf_counter() - started
    summary = report["summary"]
    for suite, stats in summary["suites"].items():
        print(
            f"{suite}: {stats['passes']}/{stats['trials']} checks hold, "
            f"worst slack {stats['worst_slack_bits']:.3e} bits"
        )
    print(f"total: {summary['total_passes']}/{summary['total_checks']} "
          f"(wall time {elapsed:.1f} s)")
    if args.out:
        if args.format == "json":
            write_json(report, args.out)
        else:
            write_csv(report["checks"], args.out)
        print(f"wrote {args.out}")
    if not summary["all_hold"]:
        for row in report["checks"]:
            if not row["holds"]:
                print(
                    "FAILED check reproducer: "
                    f"suite={row['suite']} check={row['check']} trial={row['trial']} "
                    f"seed={row['seed']} dims={row['dims']} slack={row['slack_bits']:.6e}",
                    file=sys.stderr,
                )
        return 1
    return 0


def _cmd_sweep(args) -> int:
    if args.target != "bosonic":
        print(f"unknown sweep target {args.target!r}", file=sys.stderr)
        return 2
    guard = args.guard
    try:
        trunc = bos.FockTruncation(args.n_max)
        if trunc.n_max < 4:
            raise ValueError("n_max must be at least 4: the single-photon state needs mean <= n_max/4")
        if not 0 <= guard < trunc.n_max:
            raise ValueError(f"guard must satisfy 0 <= guard < n_max = {trunc.n_max}, got {guard}")
        etas = [float(x) for x in args.etas.split(",") if x]
        gains = [float(x) for x in args.gains.split(",") if x]
        states = bosonic_states(trunc, guard)
        specs = bosonic_specs(trunc, etas, gains)
    except (ValueError, TypeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    print(f"almost-unital guard-band feasibility (n_max={trunc.n_max}, tol={bos.DEFAULT_TRUNC_TOL:g})")
    print(f"eta    tail@edge(guard={guard})  measured B(I) dev  recommended guard")
    for spec in (s for s in specs if s.kind == "loss"):
        unital = bos.check_almost_unital(spec, n_guard=guard)
        print(f"{spec.eta:<6} {unital.aux['analytic_tail']:<20.3e} {unital.rhs:<17.3e} "
              f"{bos.recommended_guard(spec)}")
    rows = []
    ok = True
    for spec in specs:
        for name, rho in states:
            rep = bos.check_bosonic_entropy_gain(spec, rho, n_guard=guard, state_name=name)
            ok = ok and rep.holds
            rows.append(
                report_row(rep, "bosonic-sweep", len(rows))
                | {
                    "aux": {
                        "kind": spec.kind,
                        "parameter": spec.parameter(),
                        "n_max": trunc.n_max,
                        "guard": guard,
                        "leakage": rep.aux["guard_leakage"],
                        "state": name,
                    }
                }
            )
    if args.out:
        write_csv(rows, args.out)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        for row in rows:
            print(
                f"{row['aux']['kind']} param={row['aux']['parameter']:.4g} state={row['aux']['state']}: "
                f"slack={row['slack_bits']:.3e} holds={row['holds']}"
            )
    return 0 if ok else 1


def _cmd_report(args) -> int:
    if args.action != "merge":
        print(f"unknown report action {args.action!r}", file=sys.stderr)
        return 2
    try:
        reports = []
        for path in args.inputs:
            with open(path, "r", encoding="utf-8") as fh:
                reports.append(json.load(fh))
        merged = merge_reports(reports)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"cannot merge: {exc}", file=sys.stderr)
        return 2
    write_json(merged, args.out)
    print(f"wrote {args.out} ({len(merged['checks'])} checks)")
    return 0 if merged["summary"]["all_hold"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qrecovery", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run check suites")
    _add_verify_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="bosonic parameter sweep")
    p_sweep.add_argument("target")
    p_sweep.add_argument("--n-max", type=int, default=40)
    p_sweep.add_argument("--guard", type=int, default=bos.DEFAULT_GUARD)
    p_sweep.add_argument("--etas", default="0.7,0.8,0.9,0.99")
    p_sweep.add_argument("--gains", default="1.01,1.1,1.25")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser("report", help="report utilities")
    p_report.add_argument("action")
    p_report.add_argument("inputs", nargs="+")
    p_report.add_argument("--out", required=True)
    p_report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
