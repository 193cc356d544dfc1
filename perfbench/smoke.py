"""Smoke test of the benchmark itself, at a reduced n_draws (about a minute).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json keeps to its format; that run.py prints every
end-to-end metric by name with its unit, and every per-layer metric with
``--trace 1``; that each layer a workload calls shows nonzero work in the
traced run while the layers it bypasses read zero; and that run.py fails
without a result when the program's sources are missing.  Exits 1 on the
first failed check.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_DRAWS = 400_000
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# Counters that must read zero on workloads that never reach the layer.
ZERO_UNLESS = {"renewal.strip_steps": {"coupled_report"}, "garch.chain_steps": {"garch_report"}}


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke FAILED: {what}")


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]),
          "each why is one line of at most 200 characters")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "metric names are unique")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(bool(NAME.fullmatch(m["name"])) and bool(UNIT.fullmatch(m["unit"]))
              and m["better"] in ("higher", "lower"), f"metric {m['name']} format")
    for m in spec["end_to_end"]:
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is present, in s, lower is better, with the largest bound")


def run(cwd: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--n-draws", str(SMOKE_DRAWS)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)
    return proc


def check_run(workload: str, trace: int, wanted: list) -> dict:
    proc = run(ROOT, workload, trace)
    check(proc.returncode == 0, f"{workload} trace {trace} exit {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace {trace} output check: {proc.stdout}")
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in wanted], f"{workload} trace {trace} metric names")
    for m in wanted:
        value = metrics[m["name"]]
        check(value["unit"] == m["unit"] and isinstance(value["value"], (int, float)),
              f"{workload} {m['name']} unit and value")
    if not trace:
        summary = "\n".join(lines[:-1])
        for name in [m["name"] for m in wanted] + ["checks_failed_ratio"]:
            check(re.search(rf"^  {name} ", summary, re.M) is not None,
                  f"{workload} summary names {name}")
    return {k: v["value"] for k, v in metrics.items()}


def check_layers(workload: str, values: dict) -> None:
    for layer in WORKLOADS[workload].layers:
        check(any(v for k, v in values.items() if k.startswith(layer + ".")),
              f"{workload} calls layer {layer} but its counters are all zero")
    for name, callers in ZERO_UNLESS.items():
        check((values[name] > 0) == (workload in callers),
              f"{workload} {name} = {values[name]}")
    check(values["pipelines.chunk_overlap"] >= 1.0 - 1e-9, f"{workload} chunk overlap below 1")


def check_bare_directory() -> None:
    """Without src/, run.py must fail without printing a result."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "demo_report", 0)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "run.py without sources must fail without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    check_bare_directory()
    for workload in WORKLOADS:
        check_run(workload, 0, spec["end_to_end"])
        check_layers(workload, check_run(workload, 1, spec["per_layer"]))
        print(f"smoke {workload}: ok", flush=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
