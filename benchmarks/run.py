"""braidrep benchmark: one workload, one closed-loop client, checked answers.

Usage (from the repository root):

    python3 benchmarks/run.py --workload lkb_long --seed 1 --seconds 25 --trace 0

Workloads: lkb_long, lkb_short, garside, cli_cold (see workloads.py).  Each
operation is sent only after the previous one completed, from one process
and one thread; cli_cold runs one CLI child process at a time.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh processes, each timed from process start to the first timed
operation), operations per second, p50 and p90 latency, and peak RSS.
``--trace 1`` runs a fixed prefix of the workload three times in fresh
processes, twice traced and once untraced, checks that the exact counts of
the two traced runs agree, and reports the per-layer metrics.  Metric
names and units are those of BENCHMARK.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A human-readable summary goes to stderr.
The exit code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"

# Fresh processes that only set up, in addition to the measured one.
SETUP_PROBES = 3
# Operations in a traced run: a few seconds of untraced work.
TRACE_OPS = {"lkb_long": 32, "lkb_short": 400, "garside": 24, "cli_cold": 24}
CHILD_TIMEOUT_S = 170.0


def child(workload: str, seed: int, *extra: str) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    t0 = time.monotonic()
    done = subprocess.run(
        argv + ["--t0", repr(t0), *extra],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    runs = [child(workload, seed, "--mode", "setup") for _ in range(SETUP_PROBES)]
    runs.append(child(workload, seed, "--mode", "timed", "--seconds", str(seconds)))
    lat = runs[-1]["latencies"]
    cuts = statistics.quantiles(lat, n=10, method="inclusive")
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * cuts[4],
        "op_p90_ms": 1000 * cuts[8],
        "peak_rss_mib": runs[-1]["peak_rss_kib"] / 1024,
    }
    return values, runs[-1:]


def traced(workload: str, seed: int) -> tuple[dict, list[dict]]:
    import tracing

    ops = str(TRACE_OPS[workload])
    first = child(workload, seed, "--mode", "fixed", "--ops", ops, "--trace", "1")
    second = child(workload, seed, "--mode", "fixed", "--ops", ops, "--trace", "1")
    plain = child(workload, seed, "--mode", "fixed", "--ops", ops)
    values = layer_values(first)
    again = layer_values(second)
    for key in tracing.EXACT:
        if values[key] != again[key]:
            first["failures"].append(f"exact count {key} differs between traced runs: {values[key]} vs {again[key]}")
    traced_s, plain_s = sum(first["latencies"]), sum(plain["latencies"])
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    return values, [first, second, plain]


def layer_values(run: dict) -> dict:
    import tracing

    if run["cli_traces"]:
        agg = tracing.merge(run["cli_traces"])
        process_s = sum(t["process_s"] for t in run["cli_traces"])
        main_s = sum(t["main_s"] for t in run["cli_traces"])
    else:
        agg = tracing.merge([run["trace"]])
        process_s = main_s = 0.0
    values = tracing.layer_metrics(agg)
    values["cli.process_s"] = process_s
    values["cli.main_s"] = main_s
    values["cli.startup_share"] = (process_s - main_s) / process_s if process_s else 0.0
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "braidrep" / "__init__.py").is_file():
        print(f"error: no braidrep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # Byte-compile first, so that no measured set-up includes compiling.
    compileall.compile_dir(str(SRC), quiet=1)

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        if args.trace:
            values, runs = traced(args.workload, args.seed)
        else:
            values, runs = end_to_end(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["latencies"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    samples = len(runs[-1]["latencies"]) if not args.trace else attempted
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops attempted, "
        f"{len(failures)} failed (failed_frac {len(failures) / attempted:.4f}), "
        f"{samples} latency samples",
        file=sys.stderr,
    )
    for failure in failures[:20]:
        print("  FAILED " + failure, file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
