"""One hostile op in its own process: ``child.py <trace 0|1> <cli args...>``.

Runs ``ncdim.cli.main`` on the arguments with its output captured, then
writes one JSON line to stdout: the exit code, the captured stdout, its peak
resident memory and, when traced, the spans and counters.  A traced child that gets SIGTERM (its wall
budget ran out) closes its open spans and writes them before exiting, so the
parent sees where the time went.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import runtime  # noqa: E402
import spans  # noqa: E402


def _emit(result: dict) -> None:
    data = (json.dumps(result) + "\n").encode("utf-8")
    while data:
        data = data[os.write(1, data):]


def main() -> None:
    traced = sys.argv[1] == "1"
    argv = sys.argv[2:]
    runtime.import_ncdim()
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()

        def on_term(signum, frame):
            tracer.close_open()
            _emit({"code": None, "stdout": "", "spans": tracer.spans,
                   "counts": tracer.counts})
            os._exit(0)

        signal.signal(signal.SIGTERM, on_term)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = runtime.call_cli(argv)
    result = {"code": code, "stdout": out.getvalue(),
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    _emit(result)


if __name__ == "__main__":
    main()
