"""Run one batch of a workload in a fresh interpreter.

Reads a JSON spec on stdin: {"inputs": [{"id", "argv"}], "trace": bool,
"spans_out": path or null}. Calls `ecfactor.cli.main(argv)` once per input,
in order, each call starting only after the previous one returned, with the
CLI's stdout captured. Prints one JSON line: the captured output, exit code
and wall time of every call, the total wall time, the process's peak RSS and,
when traced, the per-layer span totals. An untraced batch also reports its
wall time rescaled to a fixed host speed (refclock.py); a traced one does not
run the reference clock, so its spans hold only the program's time.

A fresh process per batch gives every batch the caches a CLI session starts
with: empty.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout


def main() -> int:
    spec = json.load(sys.stdin)
    import ecfactor.cli as cli

    tracer = clock = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        from refclock import RefClock

        clock = RefClock()
        clock.start()
    calls = []
    started = time.perf_counter()
    for inp in spec["inputs"]:
        out = io.StringIO()
        if tracer is not None:
            tracer.input_id = inp["id"]
        exc = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out):
                rc = cli.main(inp["argv"])
        except Exception:
            rc, exc = None, traceback.format_exc()
        calls.append({"rc": rc, "out": out.getvalue(), "exc": exc, "t": (t0, time.perf_counter())})
    ended = time.perf_counter()
    wall_s, wall_ref_s = ended - started, None
    if clock is not None:
        clock.stop()
        wall_s, wall_ref_s = clock.seconds(started, ended)
    for call in calls:
        t0, t1 = call.pop("t")
        call["ms"] = (clock.seconds(t0, t1)[0] if clock else t1 - t0) * 1e3
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"wall_s": wall_s, "wall_ref_s": wall_ref_s, "rss_kb": rss_kb,
              "calls": calls, "layers": None}
    if tracer is not None:
        report["layers"] = tracer.layers()
        if spec["spans_out"]:
            tracer.write(spec["spans_out"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
