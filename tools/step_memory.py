"""Print the peak and current RSS around each step of a benchmark full report.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tools/step_memory.py --workload demo_report --seed 7

The workload's config comes from ``perfbench/workloads.py`` at the given
seed, as ``tools/report_digest.py`` builds it, and the full report runs in
this process into a temporary directory (``--out DIR`` keeps it).  Each step
of the report is wrapped, and one line per step gives, in MB (MiB, as the
benchmark reports ``peak_rss_mb``): the process's peak RSS (``ru_maxrss``)
before and after the step, and its current RSS (``/proc/self/statm``)
before and after.  The ``start`` line is taken after the imports, before
the run starts.  A step whose peak rises is one that allocated more than
the process had held so far.
"""

import argparse
import os
import resource
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from tritail import pipelines  # noqa: E402
from tritail.config import parse_config  # noqa: E402

_PAGE = os.sysconf("SC_PAGE_SIZE")
_MIB = 1 << 20


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * _PAGE / _MIB


def _measured(name: str, step_run, rows: list):
    def run(ctx) -> None:
        peak, rss = _peak_mb(), _rss_mb()
        try:
            step_run(ctx)
        finally:
            rows.append((name, peak, _peak_mb(), rss, _rss_mb()))

    return run


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    rows = [("start", _peak_mb(), _peak_mb(), _rss_mb(), _rss_mb())]
    for name, step in list(pipelines._STEPS.items()):
        pipelines._STEPS[name] = replace(step, run=_measured(name, step.run, rows))
    with tempfile.TemporaryDirectory() as tmp:
        outdir = args.out or Path(tmp)
        pipelines.run(parse_config(WORKLOADS[args.workload].config(args.seed, str(outdir))))
    print(f"{args.workload} s{args.seed}")
    print(f"{'step':<16}{'peak_before':>12}{'peak_after':>12}{'rss_before':>12}{'rss_after':>12}")
    for name, *mb in rows:
        print(f"{name:<16}" + "".join(f"{v:>12.1f}" for v in mb))


if __name__ == "__main__":
    main()
