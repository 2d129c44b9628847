"""One round of a workload in a fresh interpreter.

Usage: python3 -I bench/child.py SRC OPS_FILE OUT_FILE [--trace]

Imports gausslab from SRC, reads the op list, prints ``ready`` once it could
start its first op, then runs every op through ``cli.main`` in order.  Each
op's exit code, time and captured output go to OUT_FILE as one JSON line,
written after the op's clock has stopped.  With ``--trace`` the per-layer
wrappers of ``tracer`` are installed first and their totals end the file.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback


def main() -> int:
    src, ops_file, out_file = sys.argv[1:4]
    trace = "--trace" in sys.argv[4:]
    sys.path.insert(0, src)
    from gausslab import cli

    tracer = None
    if trace:
        sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(ops_file) as handle:
        ops = json.load(handle)
    print("ready", flush=True)
    with open(out_file, "w") as out:
        for argv in ops:
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter_ns()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    code = None
                    error = traceback.format_exc()
                elapsed = time.perf_counter_ns() - start
            record = {
                "rc": code,
                "ns": elapsed,
                "out": stdout.getvalue(),
                "err": error or stderr.getvalue(),
            }
            out.write(json.dumps(record) + "\n")
        if tracer is not None:
            out.write(json.dumps({"trace": tracer.metrics()}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
