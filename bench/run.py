#!/usr/bin/env python3
"""Benchmark of rieszgauge: certify, membership and cli workloads.

    python3 bench/run.py                      # every workload, every metric
    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --quick              # short lists, for the tests

A run with ``--workload`` is one process acting as a single caller: it builds
the workload's fixed operation list from ``--seed`` (as many rounds as
``--seconds`` calls for on the reference box, never cut short by the clock),
runs the operations one after another, checks every result against values
computed apart from the program, and prints one JSON object as the last line
of its standard output.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs the first rounds once untraced and once
under the tracer and reports the per-layer metrics.  Without ``--workload``
it runs every workload in a fresh process, both ways, and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("certify", "membership", "cli")

#: Seconds one round takes on the reference box (2 cores, Python 3.11); a run
#: of ``--seconds s`` executes ``round(s / NOMINAL_ROUND_S)`` rounds.
NOMINAL_ROUND_S = {"certify": 0.55, "membership": 4.0, "cli": 0.8}

#: A traced run repeats this share of the rounds, untraced and then traced.
TRACE_SHARE = 5

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 7

END_TO_END = {"ops_per_s": "op/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one short round per workload, every check, "
                        "no timing claims")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _rounds(args) -> int:
    if args.quick:
        return 1
    return max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))


def _timed_pass(ops):
    """Run ``ops`` in order; return their latencies, results and wall time."""
    clock = time.perf_counter
    latencies, results = [], []
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:  # an escaped error is a result to judge
            out = exc
        latencies.append(clock() - t0)
        results.append(out)
    return latencies, results, clock() - start


def _judge(workloads, ops, results):
    """Count failed operations; ``correct`` holds when every failure is one
    of the known faults."""
    failed, reasons = 0, {}
    for op, out in zip(ops, results):
        reason = workloads.judge(op, out)
        if reason is not None:
            failed += 1
            reasons.setdefault(op.kind, reason)
    for kind, reason in sorted(reasons.items()):
        known = " (known fault)" if kind in workloads.KNOWN_FAULTS else ""
        print(f"failed {kind}{known}: {reason}", file=sys.stderr)
    return failed, all(kind in workloads.KNOWN_FAULTS for kind in reasons)


def _setup_seconds(args) -> float:
    """Median time from starting a fresh interpreter to its having imported
    the package and built this run's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.quick:
        cmd.append("--quick")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(elapsed)
    return statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, workloads, rounds) -> dict:
    ops = [op for r in rounds for op in r]
    gc.collect()
    latencies, results, wall = _timed_pass(ops)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, correct = _judge(workloads, ops, results)
    ms = sorted(x * 1e3 for x in latencies)
    metrics = {
        "ops_per_s": len(ops) / wall,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10,
                                               method="inclusive")[8],
        "setup_s": _setup_seconds(args),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": {k: _metric(v, END_TO_END[k])
                        for k, v in metrics.items()}}


def run_traced(args, workloads, rounds) -> dict:
    import tracing
    ops = [op for r in rounds[:max(1, len(rounds) // TRACE_SHARE)] for op in r]
    gc.collect()
    _, plain, wall_plain = _timed_pass(ops)
    gc.collect()
    with tracing.Tracer() as tracer:
        _, traced, wall_traced = _timed_pass(ops)
    failed, correct = _judge(workloads, ops + ops, plain + traced)
    metrics = tracer.metrics()
    metrics.update({"cli.report_bytes": workloads.report_bytes(traced),
                    "trace.untraced_s": wall_plain,
                    "trace.traced_s": wall_traced,
                    "trace.overhead": wall_traced / wall_plain})
    return {"correct": correct, "attempted": 2 * len(ops), "failed": failed,
            "metrics": {k: _metric(metrics[k], unit)
                        for k, unit in tracing.METRICS.items()}}


def run_all(args) -> int:
    """Every workload in a fresh process, untraced and traced; a table of
    every metric, then one JSON line with all the results."""
    everything, ok = {}, True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--quick"] if args.quick else []),
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            everything.setdefault(workload, {})[
                "traced" if trace else "untraced"] = result
            ok = ok and result["correct"]
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(everything))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "rieszgauge" / "__init__.py").is_file():
        print(f"error: no rieszgauge sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads
    rounds = workloads.build(args.workload, args.seed, _rounds(args),
                             args.quick)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    run = run_traced if args.trace else run_untraced
    print(json.dumps(run(args, workloads, rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
