"""Print every line of ``src/tritail`` that neither the Tier-1 suite nor the workloads execute.

Run from the root of a source checkout:

    python3 tools/line_reach.py [--seeds 7,51,61]

The script traces every thread of this process (``sys.settrace`` and
``threading.settrace``) before it imports the package, runs the Tier-1 suite
in this process (``pytest.main`` on ``tests/`` with ``-p no:cacheprovider``),
then the full report of each workload of ``perfbench/workloads.py`` at each
seed.  A line is executable when a code object compiled from its module maps
an instruction to it (``co_lines``), and reached when the trace saw it run.
It prints ``file:line: source`` for every executable line that was not
reached, then their count and pytest's exit code.  It writes nothing in the
checkout: no bytecode is cached, pytest and hypothesis run from a temporary
directory, and the reports go to another.
"""

import argparse
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tritail"


def executable_lines(path: Path) -> set:
    """The lines of a module that some instruction of its code maps to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def tracer(hits: dict):
    """A trace function that records the lines run in the files keyed in ``hits``."""

    def call(frame, event, arg):
        seen = hits.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    return call


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=lambda text: [int(v) for v in text.split(",")],
                        default=[7, 51, 61])
    args = parser.parse_args(argv)
    files = sorted(PACKAGE.glob("*.py"))
    hits = {str(path): set() for path in files}
    trace = tracer(hits)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.settrace(trace)
    threading.settrace(trace)
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              str(ROOT / "tests")])
        from tritail.config import parse_config
        from tritail.pipelines import run
        from workloads import WORKLOADS

        for name, workload in WORKLOADS.items():
            for seed in args.seeds:
                run(parse_config(workload.config(seed, str(Path(scratch) / f"{name}-s{seed}"))))
        os.chdir(ROOT)
    sys.settrace(None)
    threading.settrace(None)
    missed = 0
    for path in files:
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hits[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of src/tritail not reached; pytest exit code {int(status)}")


if __name__ == "__main__":
    main()
