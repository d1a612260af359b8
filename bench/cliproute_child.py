"""Fresh-process ``cliproute`` launcher used by the query workload.

Untraced, it does what the installed ``cliproute`` console script does.
When ``CLIPROUTE_BENCH_SPANS`` names a file, it also times the import of
``cliproute.cli``, traces the run with :class:`tracing.Tracer`, and writes
the spans to that file before exiting.
"""

import os
import sys
import time

span_path = os.environ.get("CLIPROUTE_BENCH_SPANS")
if not span_path:
    from cliproute.cli import console_main

    console_main()

start = time.perf_counter()
import cliproute.cli  # noqa: E402

end = time.perf_counter()
from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.add_span("cli.import", start, end)
tracer.install()
try:
    code = cliproute.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    tracer.dump(span_path)
sys.exit(code)
