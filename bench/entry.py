"""One call of dpratio.cli.main(argv) in a fresh process.

Usage: entry.py SPAWN_TIME TRACE [-- ARGV...]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start and the dpratio import.
Without ARGV the process only imports dpratio and runs `calibrate()` once
(a set-up probe).  A call is bracketed by `calibrate()`, whose mean time is
reported as cal_s.  With TRACE 1 the call runs under the spans of
`spans.py`, and the cost of one span is measured after it.  Prints one JSON
line.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import dpratio.cli

IMPORTED_AT = time.monotonic()


def main(args: list[str]) -> dict:
    spawn_time, trace, call_argv = float(args[0]), args[1] == "1", args[3:]
    rec = {"setup_s": IMPORTED_AT - spawn_time, "dpratio_file": dpratio.__file__}
    import calibrate  # after IMPORTED_AT: set-up time covers dpratio alone

    if not call_argv:
        rec["cal_s"] = calibrate.calibrate()
        return rec

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(dpratio)
    buf = io.StringIO()
    rc, error = None, None
    cal_before = calibrate.calibrate()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = dpratio.cli.main(call_argv)
    except SystemExit as e:  # argparse rejected the arguments
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cal_s = (cal_before + calibrate.calibrate()) / 2
    if tracer is not None:
        rec["span_cost_s"] = spans.span_cost()
    rec.update(
        rc=rc,
        error=error,
        wall_s=wall_s,
        cal_s=cal_s,
        rss_mb=rss_mb,
        output=buf.getvalue(),
        spans=None if tracer is None else [
            [name, s - t, e - t, parent] for name, s, e, parent in tracer.spans
        ],
    )
    return rec


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
