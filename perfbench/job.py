"""Run one looplab CLI job in a fresh process, as a user's invocation does.

Usage: python3 job.py TRACE_FILE|- LOOPLAB_ARGS...

Once ``looplab.cli`` is imported the job writes ``perfbench-ready <t>``
to stderr, t being ``time.perf_counter()`` (CLOCK_MONOTONIC, shared with
the parent), so the parent can split set-up from the job itself.  With a
trace file the job wraps the layers (see tracer.py) before calling
``cli.main`` and writes the spans there when main returns.
"""

import sys
import time

import looplab.cli

sys.stderr.write(f"perfbench-ready {time.perf_counter()!r}\n")
sys.stderr.flush()

trace_file, argv = sys.argv[1], sys.argv[2:]
if trace_file == "-":
    sys.exit(looplab.cli.main(argv))

from tracer import Tracer  # noqa: E402  (kept out of the timed set-up)

tracer = Tracer()
tracer.install()
try:
    code = looplab.cli.main(argv)
finally:
    tracer.dump(trace_file)
sys.exit(code)
