"""tritail benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload demo_report --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  The workload's config is generated from
``--seed`` (see workloads.py) and written to a temporary directory under
``.perfbench/``, which is removed afterwards; that config is the only input
the program receives.  Load model: closed loop, one client.  Each run of
``tritail report`` is a fresh child process (child.py), started only after
the previous one has exited, until ``--seconds`` would be exceeded (at least
one run).

Every child's outputs are checked: exit status 0 or 1 and consistent with
the gated records; ``report.json`` loads and its ``config_digest`` equals
``parse_config`` of the generated config; no ``<step>_error`` record; every
listed artifact exists; and the canonical report bytes and artifact bytes
are identical across all children of the run (same workload, same seed).  A
child that breaks any of these is a failed operation.  Gated ``[FAIL]``
records are the program's verdicts, not failed operations: they are listed
by name and counted in ``checks_failed_ratio``, which is printed and recorded
but not bounded, because each gate is a statistical test whose outcome
changes with the seed.

``--trace 0`` prints the end-to-end metrics, each the median over the
children.  ``--trace 1`` alternates untraced and traced children and prints
the per-layer metrics, each the median over the traced children; the
tracing overhead is the traced median wall time minus the untraced median.
The last line of standard output is one JSON object (correct, attempted,
failed, metrics) with the metric names and units of BENCHMARK.json.  A record
with the context, the per-child rows and the SHA-256 identity of the report
and artifacts goes to ``.perfbench/records/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# A child still running after this long is killed and counted as failed, so
# that one run ends well within three minutes.
CHILD_TIMEOUT_S = 120.0


@dataclass
class Child:
    traced: bool
    wall_s: float
    peak_rss_mb: float
    status: int
    setup_s: float = float("nan")
    import_s: float = float("nan")
    gated: int = 0
    fails: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    identity: Optional[dict] = None
    layers: Optional[dict] = None

    @property
    def checks_failed(self) -> int:
        # Step errors are already gated FAIL records; count every other
        # violation once more.
        return len(self.fails) + sum(1 for v in self.violations if not v.startswith("step error"))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _spawn(cmd: list, log_path: Path):
    """Run cmd to completion; return (wall seconds, exit status, peak RSS in MB)."""
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def _check_outputs(child: Child, out: Path, digest: str) -> None:
    """Apply the output check to one child's output directory."""
    from tritail.pipelines import RunReport

    v = child.violations
    if child.status not in (0, 1):
        v.append(f"exit status {child.status}")
    try:
        report = RunReport.load(out / "report.json")
    except (OSError, KeyError, ValueError) as e:
        v.append(f"report.json unusable: {e}")
        return
    if report.config_digest != digest:
        v.append(f"config_digest {report.config_digest} != parse_config {digest}")
    gated = [r for r in report.results if r.passed is not None]
    child.gated = len(gated)
    child.fails = [r.name for r in gated if r.passed is False]
    errors = [r.name for r in report.results if r.name.endswith("_error")]
    if errors:
        v.append("step error records: " + ", ".join(errors))
    if child.status in (0, 1) and child.status != (1 if child.fails else 0):
        v.append(f"exit status {child.status} with {len(child.fails)} gated FAILs")
    artifacts = {}
    for name in report.artifacts:
        if (out / name).is_file():
            artifacts[name] = {"sha256": _sha256(out / name), "bytes": (out / name).stat().st_size}
        else:
            v.append(f"artifact {name} missing")
    child.identity = {
        "report_sha256": hashlib.sha256(report.canonical_bytes()).hexdigest(),
        "artifacts": artifacts,
    }


def _run_child(tmp: Path, config_path: Path, digest: str, traced: bool) -> Child:
    out = tmp / "out"
    shutil.rmtree(out, ignore_errors=True)
    sidecar = tmp / "sidecar.json"
    spans = tmp / "spans.npz"
    for p in (sidecar, spans):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(config_path), str(sidecar),
           str(spans) if traced else ""]
    wall, status, rss = _spawn(cmd, tmp / "child.log")
    child = Child(traced=traced, wall_s=wall, peak_rss_mb=rss, status=status)
    if sidecar.is_file():
        times = json.loads(sidecar.read_text(encoding="utf-8"))
        child.setup_s, child.import_s = times["setup_s"], times["import_s"]
    else:
        child.violations.append("child ended before writing its timings")
    _check_outputs(child, out, digest)
    if traced and spans.is_file():
        import numpy as np
        from layers import layer_metrics

        artifacts = (child.identity or {}).get("artifacts", {}).values()
        with np.load(spans) as z:
            child.layers = layer_metrics(z["spans"], [str(n) for n in z["names"]],
                                         child.import_s, sum(a["bytes"] for a in artifacts))
    elif traced:
        child.violations.append("traced child wrote no spans")
    if child.violations:
        log_tail = (tmp / "child.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"child output (tail):\n{log_tail}", file=sys.stderr)
    return child


def _context(workload, n_draws: int) -> dict:
    import numpy
    import scipy
    from tritail.streams import substream

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bit_generator": type(substream(0, "perfbench").bit_generator).__name__,
        "caches": caches,
        "main_sample_bytes_computed": workload.sample_bytes(n_draws),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _end_to_end(untraced: list, n_draws: int) -> dict:
    """Per-child series of each end-to-end metric (checks_failed_ratio too)."""
    return {
        "wall_s": [c.wall_s for c in untraced],
        "setup_s": [c.setup_s for c in untraced],
        "peak_rss_mb": [c.peak_rss_mb for c in untraced],
        "draws_per_s": [n_draws / (c.wall_s - c.setup_s) for c in untraced],
        "checks_failed_ratio": [c.checks_failed / max(c.gated, 1) for c in untraced],
    }


def _per_layer(traced: list, untraced: list) -> dict:
    layers = [c.layers for c in traced if c.layers]
    out = {k: _median([d[k] for d in layers]) for k in (layers[0] if layers else {})}
    out["trace.overhead_s"] = (_median([c.wall_s for c in traced])
                               - _median([c.wall_s for c in untraced]))
    return out


def _describe(c: Child, i: int) -> str:
    kind = "traced" if c.traced else "untraced"
    text = (f"  child {i} {kind}: wall {c.wall_s:.3f} s, setup {c.setup_s:.3f} s, "
            f"rss {c.peak_rss_mb:.1f} MB, exit {c.status}, "
            f"gated {c.gated - len(c.fails)}/{c.gated} passed")
    if c.fails:
        text += " (FAIL: " + ", ".join(c.fails) + ")"
    if c.violations:
        text += " OUTPUT CHECK FAILED: " + "; ".join(c.violations)
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-draws", type=int, default=None,
                        help="override the workload's n_draws (smoke tests only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "tritail" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a tritail checkout: {SRC}/tritail or {spec_path} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tritail.config import parse_config

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    n_draws = args.n_draws or workload.n_draws

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK / "tmp"))
    try:
        config = workload.config(args.seed, str(tmp / "out"), n_draws)
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        digest = parse_config(config).digest
        print(f"perfbench {workload.name}: seed {args.seed}, n_draws {n_draws}, "
              f"workers {config['workers']}, trace {args.trace}, budget {args.seconds:g} s")

        children: list = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(children) % 2 == 1
            child = _run_child(tmp, config_path, digest, traced)
            if child.identity and children and children[0].identity \
                    and child.identity != children[0].identity:
                child.violations.append("report or artifact bytes differ from the first child")
            children.append(child)
            print(_describe(child, len(children)), flush=True)
            complete = not args.trace or len(children) >= 2
            typical = _median([c.wall_s for c in children])
            if complete and time.perf_counter() + typical > deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # A child that died before writing its timings has failed the output
    # check already and has no setup time to report.
    untraced = [c for c in children if not c.traced and not math.isnan(c.setup_s)]
    traced = [c for c in children if c.traced]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["checks_failed_ratio"] = "ratio"
    series = _end_to_end(untraced, n_draws)
    e2e = {name: _median(values) for name, values in series.items()}
    for name, values in series.items():
        if values:
            print(f"  {name} {e2e[name]:.6g} {units[name]}: median of {len(values)} untraced "
                  f"runs (min {min(values):.6g}, max {max(values):.6g})")

    failed = sum(1 for c in children if c.violations)
    if args.trace:
        measured, wanted = _per_layer(traced, untraced), spec["per_layer"]
        print(f"  trace.overhead_s {measured['trace.overhead_s']:.6g} s "
              f"(traced median wall minus untraced median wall)")
    else:
        measured, wanted = e2e, spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "config": {k: v for k, v in config.items() if k != "output_dir"},
        "config_digest": digest,
        "context": _context(workload, n_draws),
        "identity": children[0].identity,
        "gated_fails": children[0].fails,
        "children": [
            {k: v for k, v in vars(c).items() if k not in ("identity", "layers")}
            for c in children
        ],
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "metrics": metrics,
    }
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    record_path = WORK / "records" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, allow_nan=True), encoding="utf-8")
    identity = children[0].identity or {}
    print(f"  report sha256 {identity.get('report_sha256')}; "
          f"{len(identity.get('artifacts', {}))} artifact digests in "
          f"{record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(children), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
