"""``braidrep.cli`` with tracing installed, for traced cli_cold requests.

Usage: python benchmarks/cli_runner.py <braidrep cli arguments>

Exits with the CLI's exit code.  The last line on stderr is
``BENCH_TRACE <json>``: the tracer's aggregate plus ``main_s``, the time
spent inside ``braidrep.cli.main``.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import braidrep.cli  # noqa: E402
import tracing  # noqa: E402

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = braidrep.cli.main(sys.argv[1:])
    finally:
        snapshot = tracer.snapshot()
        snapshot["main_s"] = time.perf_counter() - t0
        sys.stdout.flush()
        print("BENCH_TRACE " + json.dumps(snapshot), file=sys.stderr)
    sys.exit(code)
