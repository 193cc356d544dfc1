"""One measured `tritail report` run, started as a fresh process by run.py.

    python3 perfbench/child.py SRC CONFIG SIDECAR [SPANS]

Times the set-up (``import tritail`` plus ``parse_config`` of CONFIG), then
calls ``tritail.cli.main(["report", "--config", CONFIG])`` and exits with its
status.  The timings go to the JSON file SIDECAR.  With SPANS the tracer is
installed after set-up and its spans are written to SPANS when the run ends.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(src: str, config_path: str, sidecar: str, spans_path: str = "") -> int:
    sys.path.insert(0, src)
    t_import = time.perf_counter()
    import tritail.cli
    from tritail.config import parse_config

    import_s = time.perf_counter() - t_import
    with open(config_path, "r", encoding="utf-8") as f:
        parse_config(json.load(f))
    setup_s = time.perf_counter() - _T0

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    status = tritail.cli.main(["report", "--config", config_path])
    if tracer is not None:
        tracer.dump(spans_path)
    with open(sidecar, "w", encoding="utf-8") as f:
        json.dump({"setup_s": setup_s, "import_s": import_s}, f)
    return status


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
