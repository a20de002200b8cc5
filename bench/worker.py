"""One benchmark pass in a fresh process.

Reads a JSON spec on stdin: {"rows": [argv, ...], "trace": bool,
"spans_path": str or null}.  Imports constj.cli first, so the moment it is
ready marks the end of set-up; then calls constj.cli.main(argv) once per row,
capturing each report, and prints one JSON object with the timings, the
captured reports and, when traced, the layer statistics.
"""

import time

import constj.cli

READY = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import numpy  # noqa: E402
from tracer import Tracer, layer_values  # noqa: E402


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _run_row(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return [code, out.getvalue(), err.getvalue()[-2000:]]


def main() -> None:
    spec = json.load(sys.stdin)
    tracer = None
    run = constj.cli.main
    if spec["trace"]:
        tracer = Tracer()
        run = tracer.install(constj)

    # wall and CPU cover the same window, rows only; set-up is timed apart.
    cpu0 = _cpu_seconds()
    start = time.monotonic()
    rows = [_run_row(run, argv) for argv in spec["rows"]]
    wall = time.monotonic() - start
    cpu = _cpu_seconds() - cpu0

    result = {
        "ready": READY,
        "wall_s": wall,
        "cpu_s": cpu,
        # ru_maxrss keeps the spawning process's RSS across exec, so the
        # driver keeps its own memory below the worker's.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": rows,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        extra = {
            "wall_s": wall,
            "fields_built": tracer.fields_built(constj),
            "irreducible_tests": tracer.count_irreducible_tests(constj),
        }
        result["layers"] = layer_values(tracer.stats, tracer.counts, extra)
        result["absent"] = sorted(tracer.absent)
        result["stats"] = tracer.stats
        with open(spec["spans_path"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    json.dump(result, sys.__stdout__)


if __name__ == "__main__":
    main()
