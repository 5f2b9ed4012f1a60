"""Closed-loop benchmark of ``derived_brackets``, one process and one thread.

    python3 perfbench/run.py --workload series --seed 1 --seconds 25 --trace 0

Run from a checkout; the library is imported from its ``src`` directory.  One
client sends its next operation only after the previous one returned.  Every
operation is a suite-style check with an exact answer (see ``workloads.py``);
a wrong answer or an exception counts as a failure, and the operation is
still timed.

``--trace 0`` sets up several times (the median is ``setup_s``), then runs the
seeded pool of operations round and round for ``--seconds`` seconds (and at
least 100 operations) and reports the end-to-end metrics.  Times are scaled
to a reference host speed (see ``hostspeed.py``); the raw ones are printed
too.  ``--trace 1`` runs
a fixed prefix of the pool three times in fresh imports: untraced, traced,
traced again.  It reports the per-layer metrics of the first traced pass,
fails the run unless every count repeats exactly in the second, reports the
tracing overhead, and writes the spans under ``.bench_build/perfbench``.
``--workload all`` runs every workload in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import hostspeed
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
MODULE_NAMES = ("graded", "gla", "linfty", "vdata", "polygeo", "qgeom", "tpois",
                "sampling", "suites", "cli")

SETUPS = 7
MIN_OPS = 100
# Cycles drawn for a timed run: at least as many as one run gets through at
# the parent commit, so that inputs do not repeat within a run.
POOL_CYCLES = {"series": 90, "relations": 60, "geometry": 60, "cli": 60}
# Cycles of the traced pass: a fixed amount of work, so that counts repeat.
TRACE_CYCLES = {"series": 8, "relations": 40, "geometry": 6, "cli": 40}


def fresh_import():
    """Import ``derived_brackets`` anew from the checkout's ``src``."""
    for name in [n for n in sys.modules if n.split(".")[0] == "derived_brackets"]:
        del sys.modules[name]
    package = importlib.import_module("derived_brackets")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"derived_brackets was imported from {package.__file__}, not {SRC}")
    lib = SimpleNamespace(package=package, MODULE_NAMES=MODULE_NAMES)
    for name in MODULE_NAMES:
        setattr(lib, name, importlib.import_module(f"derived_brackets.{name}"))
    return lib


def set_up(workload, seed, cycles, tracer=None):
    """Fresh import, optional instrumentation, and the operation pool."""
    lib = fresh_import()
    if tracer is not None:
        tracing.instrument(lib, tracer)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    pool = workloads.WORKLOADS[workload](lib, random.Random(seed), cycles, workdir)
    return [op for cycle in pool for op in cycle], workdir


def run_ops(ops, host, count=None, seconds=None, tracer=None):
    """Closed loop over ``ops``: either exactly ``count`` operations, or round
    and round until ``seconds`` have passed and MIN_OPS are done.  The host
    is calibrated between operations.  Returns the raw and the host-adjusted
    latencies, and the failures by kind."""
    clock = time.perf_counter
    intervals = []
    failures = {}
    gc.collect()
    host.sample()
    start = clock()
    i = 0
    while True:
        kind, size, run = ops[i % len(ops)]
        if tracer is not None:
            tracer.op, tracer.op_kind = i, kind
        t0 = clock()
        try:
            ok = run() is True
            error = None
        except Exception as exc:  # any exception is a failed operation
            ok, error = False, exc
        t1 = clock()
        intervals.append((t0, t1))
        if not ok:
            failures.setdefault((kind, size), []).append(repr(error) if error else "wrong answer")
        i += 1
        if count is not None:
            if i >= count:
                break
        elif t1 - start >= seconds and i >= MIN_OPS:
            break
        if host.due(t1):
            host.sample()
    host.sample()
    if tracer is not None:
        tracer.op, tracer.op_kind = -1, ""
    raw = [t1 - t0 for t0, t1 in intervals]
    return raw, [host.scaled(t0, t1) for t0, t1 in intervals], failures


def report_failures(failures):
    for (kind, size), errors in sorted(failures.items()):
        print(f"FAILED {kind} size={size}: {len(errors)}x, first: {errors[0]}", file=sys.stderr)


def end_to_end(latencies, setups, completed):
    return {
        "ops_per_s": completed / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def timed_run(args):
    host = hostspeed.HostSpeed()
    raw_setups, setups, workdirs = [], [], []
    ops = None
    for i in range(SETUPS):
        ops = None  # each set-up starts from a collected heap
        gc.collect()
        host.sample()
        begin = _T0 if i == 0 else time.perf_counter()
        ops, workdir = set_up(args.workload, args.seed, POOL_CYCLES[args.workload])
        end = time.perf_counter()
        workdirs.append(workdir)
        host.sample()
        raw_setups.append(end - begin)
        setups.append(host.scaled(begin, end))
    try:
        raw, latencies, failures = run_ops(ops, host, seconds=args.seconds)
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
    report_failures(failures)
    failed = sum(len(e) for e in failures.values())
    attempted = len(latencies)
    metrics = end_to_end(latencies, setups, attempted - failed)
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}
    speed = hostspeed.REFERENCE_KERNEL_S / statistics.median(host.kernel_s)
    for label, values in (("", metrics), (" raw", end_to_end(raw, raw_setups, attempted - failed))):
        summary = ", ".join(f"{k}={v:.4g} {units[k]}" for k, v in values.items())
        print(f"{args.workload} seed={args.seed}{label}: {summary}")
    print(f"{args.workload} seed={args.seed}: failed_ratio={failed / attempted:.4g} "
          f"({failed}/{attempted} operations, {sum(raw):.2f} s raw); host at {speed:.3f} "
          f"of reference speed, median of {len(host.kernel_s)} calibrations")
    return failed == 0, attempted, failed, {k: {"value": v, "unit": units[k]}
                                            for k, v in metrics.items()}


def trace_pass(args, tracer=None):
    """One pass over the trace prefix of the pool, in a fresh import.  Returns
    its host-adjusted operations per second, its operation count and its
    failures."""
    ops, workdir = set_up(args.workload, args.seed, TRACE_CYCLES[args.workload], tracer)
    try:
        _, latencies, failures = run_ops(ops, hostspeed.HostSpeed(), count=len(ops), tracer=tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return len(latencies) / sum(latencies), len(latencies), failures


def trace_run(args):
    untraced, _, failures = trace_pass(args)
    tracer, again = tracing.Tracer(), tracing.Tracer()
    traced, count, traced_failures = trace_pass(args, tracer)
    trace_pass(args, again)

    metrics = tracer.metrics()
    repeat = again.metrics()
    mismatched = [name for name in metrics
                  if name.endswith(tracing.DETERMINISTIC_SUFFIXES) and metrics[name] != repeat[name]]
    for name in mismatched:
        print(f"NOT DETERMINISTIC {name}: {metrics[name]} then {repeat[name]}", file=sys.stderr)
    metrics["trace.ops_per_s_untraced"] = untraced
    metrics["trace.ops_per_s_traced"] = traced
    metrics["trace.ops_per_s_loss"] = 1 - traced / untraced
    spans = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.tsv")
    tracer.write(spans)

    report_failures(traced_failures)
    failed = sum(len(e) for e in traced_failures.values())
    print(f"{args.workload} seed={args.seed} traced: {count} operations, "
          f"{len(tracer.start)} spans written to {os.path.relpath(spans, ROOT)}; "
          f"ops_per_s untraced {untraced:.4g}, traced {traced:.4g} "
          f"(loss {metrics['trace.ops_per_s_loss']:.1%}); counts repeat: {not mismatched}")
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return (failed == 0 and not failures and not mismatched, count, failed,
            {name: {"value": metrics[name], "unit": units[name]} for name in units})


def run_all(args):
    ok = True
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            ok = False
    return ok


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "derived_brackets", "__init__.py")):
        print(f"no derived_brackets sources under {SRC}: run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return 0 if run_all(args) else 1
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, {cpu_model()}")
    correct, attempted, failed, metrics = (trace_run if args.trace else timed_run)(args)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
