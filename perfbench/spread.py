"""Run-to-run spread of the end-to-end metrics, measured as the bounds are.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads demo_report ...]

Runs run.py once per (seed, workload), seeds outermost, so that slow drift in
machine speed falls on every workload alike.  For each workload and metric it
prints the median of the runs and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from BENCHMARK.json; a spread at or above a third
of the bound is marked.  The raw results go to ``.perfbench/spread-<time>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append({"seed": seed, "run_s": took, **result})
            print(f"{w} seed {seed}: {took:.1f} s, correct {result['correct']}, "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)

    print(f"\n{'workload':16s} {'metric':20s} {'median':>12s} {'IQR/median':>11s} {'bound':>6s}")
    for w, runs in results.items():
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if share < m["bound"] / 3 else "  <-- at or above bound/3"
            print(f"{w:16s} {m['name']:20s} {med:12.6g} {share:11.4f} {m['bound']:6.2f}{flag}")
        print(f"{w:16s} longest run {max(r['run_s'] for r in runs):.1f} s, "
              f"all correct {all(r['correct'] for r in runs)}")
    out = ROOT / ".perfbench" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2), encoding="utf-8")
    print(f"raw results in {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
