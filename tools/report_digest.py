"""Print the SHA-256 of every benchmark report and artifact, one line per run.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tools/report_digest.py --seeds 7,51,61 --workers 1,2 --out DIR

Each benchmark workload of ``perfbench/workloads.py`` (demo, coupled and
GARCH laws at full size) runs the full report at every seed and worker
count, in this process, into ``DIR/<workload>-s<seed>-w<workers>``.  A line
reads the workload, seed and worker count, then ``report=`` the SHA-256 of
the report's canonical bytes (everything but its wall time) and
``<artifact>=`` the SHA-256 of each artifact file, in the report's order,
then ``fails=`` the names of the report's gated FAIL records, comma
separated in the report's order (empty when none fails).  Two checkouts
give the same output exactly when every report and artifact agrees byte for
byte, so one diff of their outputs checks a refactor that must not change
any result; where a change does alter records, the same diff shows whether
any FAIL appeared or went away.
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from tritail.config import parse_config  # noqa: E402
from tritail.pipelines import run  # noqa: E402


def _ints(text: str) -> list:
    return [int(v) for v in text.split(",")]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_ints, default=[7, 51, 61])
    parser.add_argument("--workers", type=_ints, default=[1, 2])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for name, workload in WORKLOADS.items():
        for seed in args.seeds:
            for workers in args.workers:
                outdir = args.out / f"{name}-s{seed}-w{workers}"
                cfg = workload.config(seed, str(outdir))
                cfg["workers"] = workers
                report = run(parse_config(cfg))
                cells = [f"report={hashlib.sha256(report.canonical_bytes()).hexdigest()}"]
                cells += [f"{a}={hashlib.sha256((outdir / a).read_bytes()).hexdigest()}"
                          for a in report.artifacts]
                cells.append("fails=" + ",".join(r.name for r in report.results
                                                 if r.passed is False))
                print(name, f"s{seed}", f"w{workers}", *cells, flush=True)


if __name__ == "__main__":
    main()
