"""One benchmark process: set up a workload, run it in a closed loop, report.

Started by run.py; prints one JSON object on stdout.  ``--t0`` is the
parent's time.monotonic() just before it started this process, so the
reported setup time runs from process start to the first timed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_PREFIX = "BENCH_TRACE "
# A timed run goes on past its deadline until it has ten latency samples
# beyond the p90.
MIN_OPS = 100


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="length of a timed run")
    parser.add_argument("--ops", type=int, default=0, help="operations in a fixed run")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload == "cli_cold":
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if args.trace:
            command = [sys.executable, str(HERE / "cli_runner.py")]
        else:
            command = [sys.executable, "-m", "braidrep.cli"]
        workload = workloads.cli_cold(args.seed, command, env)
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed)
    # Installed after the expected answers are computed, so that only the
    # warm-up and the operations are traced.  Operations look braidrep
    # functions up at call time, so they reach the wrappers.
    tracer = None
    if args.trace and args.workload != "cli_cold":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload.warm()
    started = time.monotonic()
    setup_s = started - args.t0

    latencies: list[float] = []
    failures: list[str] = []
    cli_traces: list[dict] = []
    ops = workload.ops
    clock = time.perf_counter
    k = 0
    while args.mode != "setup":
        if args.mode == "fixed":
            if k >= args.ops:
                break
        elif time.monotonic() - started >= args.seconds and k >= MIN_OPS:
            break
        op = ops[k % len(ops)]
        k += 1
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            latencies.append(clock() - t0)
            failures.append(f"{op.kind} {op.size}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(clock() - t0)
        error = op.check(result)
        if error:
            failures.append(f"{op.kind} {op.size}: {error}")
        if args.trace and args.workload == "cli_cold":
            trace = _cli_trace(result.err, latencies[-1])
            if trace is None:
                failures.append(f"{op.kind} {op.size}: traced request printed no trace")
            else:
                cli_traces.append(trace)

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF)
    report = {
        "setup_s": setup_s,
        "latencies": latencies,
        "failures": failures,
        "peak_rss_kib": usage.ru_maxrss,
        "trace": tracer.snapshot() if tracer else None,
        "cli_traces": cli_traces,
    }
    print(json.dumps(report))
    return 0


def _cli_trace(err: str, process_s: float) -> dict | None:
    for line in reversed(err.splitlines()):
        if line.startswith(TRACE_PREFIX):
            trace = json.loads(line[len(TRACE_PREFIX) :])
            trace["process_s"] = process_s
            return trace
    return None


if __name__ == "__main__":
    sys.exit(main())
