#!/usr/bin/env python3
"""Benchmark of bspsched: four workloads, each a closed loop of one
operation at a time in this process, with every output checked.

    python3 bench/run.py --workload {validate,oracle,ilp,polysolve,all}
        --seed N --seconds S --trace {0,1}

Run from the root of the repository (bench/ next to src/bspsched). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Results and trace spans are also written
to .bench_out/. See bench/README.md.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("validate", "oracle", "ilp", "polysolve")
SETUP_RUNS = 5  # set-up is timed in this many fresh processes
END_TO_END = [("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "bspsched", "__init__.py")):
        sys.exit(f"error: no bspsched sources at {SRC}; run from a checkout")


def import_library():
    require_sources()
    sys.path.insert(0, SRC)
    import bspsched
    if os.path.dirname(os.path.abspath(bspsched.__file__)) != os.path.join(SRC, "bspsched"):
        sys.exit(f"error: imported bspsched from {bspsched.__file__}, not {SRC}")


def build(workload, seed, workdir, tracer=None):
    """Import the library, generate the inputs and write the CLI's files."""
    import_library()
    import workloads
    if tracer:
        import tracing
        tracing.install_generators(tracer)
    try:
        return workloads.ROUNDS[workload](seed, workdir)
    finally:
        if tracer:
            tracer.restore()


def setup_seconds(workload, seed):
    """Median time from starting a fresh interpreter to the end of set-up."""
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if child.returncode:
            sys.exit(f"error: set-up failed\n{child.stderr}")
        samples.append(float(child.stdout.split()[-1]) - start)
    return statistics.median(samples)


def measure(ops, seconds, tracer, self_name):
    """Whole rounds of ops until seconds have passed; every output checked."""
    durations, failures, wrong = [], [], 0
    first_round = True
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            arg = op.prepare() if op.prepare else None
            gc.collect()  # no op pays for the garbage of the one before
            if tracer:
                tracer.begin(i)
            t0 = time.perf_counter()
            try:
                out = op.call(arg) if op.prepare else op.call()
                error = None
            except Exception as e:  # a failed operation is counted, not fatal
                out, error = None, e
            t1 = time.perf_counter()
            durations.append(t1 - t0)
            if tracer:
                tracer.end(op, t0, t1, self_name)
            if error is not None:
                failures.append(f"op {i} raised {type(error).__name__}: {error}")
                continue
            try:
                counts = op.check(out)
            except Exception as e:  # a malformed output may fail the check itself
                wrong += 1
                failures.append(f"op {i} wrong: {type(e).__name__}: {e}")
                continue
            finally:
                del out, arg
            if tracer:
                tracer.add(counts)
                if first_round and op.extra:
                    tracer.add(op.extra())
        first_round = False
        if time.perf_counter() - start >= seconds:
            return durations, failures, wrong


def run(args):
    import tracing

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_only:
            build(args.workload, args.seed, workdir)
            print(time.monotonic())
            return 0
        setup_s = setup_seconds(args.workload, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        ops = build(args.workload, args.seed, workdir, tracer)
        if tracer:
            tracing.install(tracer, args.workload)
        try:
            durations, failures, wrong = measure(
                ops, args.seconds, tracer, tracing.SELF.get(args.workload))
        finally:
            if tracer:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(durations)
    failed = len(failures)
    e2e = {
        "ops_per_s": (attempted - failed) / sum(durations),
        "op_p50_ms": 1000 * statistics.median(durations),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = dict(END_TO_END)
    if tracer:
        values = tracer.metrics(attempted)
        units = {name: unit for name, unit, _ in tracing.LAYERS}
    else:
        values = e2e
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    per_op = [(op.layer, 1000 * statistics.median(durations[i::len(ops)]))
              for i, op in enumerate(ops)]
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=attempted // len(ops), end_to_end=e2e, op_median_ms=per_op,
                  failures=failures[:20],
                  python=platform.python_version(), cpus=os.cpu_count())
    with open(os.path.join(OUT, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if tracer:
        with open(os.path.join(OUT, tag + "-spans.json"), "w") as f:
            json.dump([{"op": op, "name": name, "start": a, "end": b}
                       for (op, name, a, b) in tracer.spans], f)

    for line in failures[:5]:
        print(line, file=sys.stderr)
    print(f"workload {args.workload}: attempted {attempted}, failed {failed}, "
          f"rounds {record['rounds']}")
    for name, unit in END_TO_END:
        print(f"  {name} = {e2e[name]:.6g} {unit}" + (" (traced)" if tracer else ""))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    results = {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode:
            sys.exit(f"error: workload {workload} exited {child.returncode}")
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    require_sources()
    os.makedirs(OUT, exist_ok=True)
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
