"""Command-line front end: run pipelines from JSON configs, diff reports.

Every run subcommand follows the same shape:

    tritail <subcommand> --config experiment.json [--seed N] [--workers N] [--out DIR]

The subcommand selects the pipeline (overriding whatever the config names),
``--seed`` replaces the config's base seed before hashing, and ``--workers`` /
``--out`` adjust execution without touching the experiment's identity.  Exit
status: 0 when every pass-gated check passed, 1 when any failed, 2 when the
config (or a diff input) was unusable.
"""

import argparse
import sys

from .config import PIPELINES, apply_overrides, parse_config, read_config_object
from .errors import ConfigInvalid, PipelineMismatch
from .pipelines import RunReport, compare_reports, run

__all__ = ["main"]

# Each pipeline's subcommand: its name with dashes, and "report" for full_report.
_SUBCOMMAND_PIPELINES = {"report" if p == "full_report" else p.replace("_", "-"): p
                         for p in PIPELINES}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config (JSON)")
    p.add_argument("--seed", type=int, default=None, help="override sim.base_seed")
    p.add_argument("--workers", type=int, default=None, help="override worker count")
    p.add_argument("--out", default=None, help="override output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritail",
        description="Simulate triangular stochastic recursions and verify their tail behavior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, pipeline in _SUBCOMMAND_PIPELINES.items():
        p = sub.add_parser(cmd, help=f"run the {pipeline} pipeline")
        _add_run_flags(p)
    d = sub.add_parser("diff", help="compare two run reports")
    d.add_argument("report_a", help="first report.json")
    d.add_argument("report_b", help="second report.json")
    d.add_argument("--rel-tol", type=float, default=1e-9,
                   help="relative tolerance separating within-tol from differs")
    return parser


def _format_record(r) -> str:
    tag = {True: "PASS", False: "FAIL", None: "info"}[r.passed]
    parts = [f"[{tag}] {r.name}"]
    if r.value is not None:
        parts.append(f"= {r.value:.8g}")
    if r.std_error:
        parts.append(f"(se {r.std_error:.3g})")
    if r.bound_low is not None or r.bound_high is not None:
        lo = "-inf" if r.bound_low is None else f"{r.bound_low:.6g}"
        hi = "+inf" if r.bound_high is None else f"{r.bound_high:.6g}"
        parts.append(f"in [{lo}, {hi}]")
    if r.note:
        parts.append(f"  # {r.note}")
    return " ".join(parts)


def _do_run(args: argparse.Namespace) -> int:
    try:
        obj = read_config_object(args.config)
        if isinstance(obj, dict):
            obj["pipeline"] = _SUBCOMMAND_PIPELINES[args.command]
            apply_overrides(obj, seed=args.seed, workers=args.workers, out=args.out)
        cfg = parse_config(obj)
        report = run(cfg)
    except ConfigInvalid as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for record in report.results:
        print(_format_record(record))
    gated = [r for r in report.results if r.passed is not None]
    failed = sum(1 for r in gated if r.passed is False)
    print(
        f"{cfg.name}: {len(gated) - failed}/{len(gated)} gated checks passed; "
        f"report in {cfg.output_dir}/report.json ({report.wall_time:.2f}s)"
    )
    return 0 if failed == 0 else 1


def _do_diff(args: argparse.Namespace) -> int:
    if not args.rel_tol >= 0.0:
        print(f"error: --rel-tol: must be a non-negative number, got {args.rel_tol!r}",
              file=sys.stderr)
        return 2
    try:
        a = RunReport.load(args.report_a)
        b = RunReport.load(args.report_b)
    except (OSError, KeyError, TypeError, ValueError) as e:
        print(f"error: cannot load reports: {e}", file=sys.stderr)
        return 2
    try:
        diffs = compare_reports(a, b, rel_tol=args.rel_tol)
    except PipelineMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for d in diffs:
        print(d)
    hard = sum(1 for d in diffs if d.status == "differs")
    if not diffs:
        print("reports identical")
    else:
        print(f"{len(diffs)} differing fields ({hard} beyond tolerance)")
    return 0 if hard == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "diff":
        return _do_diff(args)
    return _do_run(args)


if __name__ == "__main__":
    sys.exit(main())
