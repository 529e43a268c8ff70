"""One fresh process of a benchmark run.

    python3 perfbench/child.py RESULT_JSON RUN_ID TRACE [gplod arguments...]

Imports ``gplod.cli`` (``src`` must be on PYTHONPATH), optionally installs
the span recorder, times one ``gplod.cli.main`` call, and writes a JSON
result: the clock readings of start, ready (imports done) and end, the
exit code, the process's peak resident memory, and the spans.  With no
gplod arguments it only times the imports (a set-up probe).
"""

import json
import resource
import sys
import time

START = time.monotonic()


def main():
    result_path, run_id, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[4:]
    import gplod.cli

    ready = time.monotonic()
    result = {"start": START, "ready": ready}
    if argv:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer(run_id)
            tracer.install()
        t0 = time.perf_counter()
        try:
            code = gplod.cli.main(argv)
        except Exception as exc:  # a raising call is a failed operation, not a lost run
            code = f"raised {type(exc).__name__}: {exc}"
        result["wall_s"] = time.perf_counter() - t0
        result["exit_code"] = code
        if tracer is not None:
            result["trace"] = tracer.dump()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
