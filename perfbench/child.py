"""One fresh interpreter of the benchmark: import hilbtorus, run requests.

Usage (started by run.py, never by hand):

    python3 child.py setup        print the clock reading once hilbtorus.cli
                                  is imported, then exit
    python3 child.py run|trace    read a JSON list of argv lists on stdin and
                                  pass each to hilbtorus.cli.main in turn

Requests run one after another in this single process (a closed loop with
one client). Each request's stdout is captured; only the call to main is
timed. After each request one JSON line {"ms", "rc", "out"} goes to the real
stdout, and a last line {"end": ...} carries the peak RSS, ru_minflt and,
for "trace", the span report of spans.py.
"""

import sys
import time

from hilbtorus import cli

READY = time.perf_counter()

import contextlib  # noqa: E402  (imported after the set-up clock reading)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _run(argv, main):
    """(milliseconds, exit code, captured stdout) of one request."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # the request failed; its check will say so
            rc = "exception: " + traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed * 1000.0, rc, buf.getvalue()


def _peak_rss_kb(usage):
    """This process image's resident high-water mark. ru_maxrss is not used
    when /proc is readable: Linux carries the parent's RSS at fork into the
    child's ru_maxrss, so it reads the size of run.py, not ours."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return usage.ru_maxrss


def main():
    mode = sys.argv[1]
    if mode == "setup":
        print(json.dumps({"ready": READY, "module": cli.__file__}))
        return
    requests = json.load(sys.stdin)
    tracer = None
    entry = cli.main
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        entry = tracer.install()
    out = sys.stdout
    for argv in requests:
        ms, rc, text = _run(argv, entry)
        if tracer is not None:
            tracer.output_bytes += len(text.encode())
        out.write(json.dumps({"ms": ms, "rc": rc, "out": text}) + "\n")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.write(json.dumps({
        "end": True,
        "module": cli.__file__,
        "peak_rss_kb": _peak_rss_kb(usage),
        "minflt": usage.ru_minflt,
        "trace": tracer.report() if tracer is not None else None,
    }) + "\n")


if __name__ == "__main__":
    main()
