"""One benchmark session in a fresh interpreter.

Usage: python3 bench/worker.py SESSION.json

SESSION.json holds {"root", "ops": [[experiment, config_path, out_dir], ...],
"trace", "result", "spans"}.  The worker imports cavitylab from
`<root>/src`, prints "ready" (run.py times set-up up to this line),
runs the experiments one after another through the CLI entry point and
writes timings, exit codes and peak RSS to the result file.  With tracing
on, it also installs the tracer and writes its spans.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main(session_path: str) -> int:
    with open(session_path) as fh:
        session = json.load(fh)
    src = os.path.join(session["root"], "src")
    sys.path.insert(0, src)
    import cavitylab
    import cavitylab.cli as cli

    origin = os.path.realpath(cavitylab.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        print(f"cavitylab was imported from {origin}, not from {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)

    tracer = None
    if session["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(cavitylab)

    ops = []
    start = time.perf_counter()
    for index, (experiment, config_path, out_dir) in enumerate(session["ops"]):
        if tracer is not None:
            tracer.op = index
        argv = [experiment, "--out", out_dir]
        if config_path:
            argv += ["--config", config_path]
        t0 = time.perf_counter()
        try:
            code, error = cli.main(argv), None
        except Exception:  # the session must report every operation
            code, error = None, traceback.format_exc()
        ops.append({"code": code, "error": error, "seconds": time.perf_counter() - t0})
    wall = time.perf_counter() - start

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(session["result"], "w") as fh:
        json.dump({"wall_s": wall, "peak_rss_mb": rss_mb, "ops": ops}, fh)
    if tracer is not None:
        tracer.dump(session["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
