#!/usr/bin/env python3
"""pt-horizon benchmark: time the package end to end, or per layer.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload box3d --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 3     # every workload, one at a time

A run repeats the workload's pass until `--seconds` are used up and reports
medians over passes.  With `--trace 0` it prints the end-to-end metrics
(wall_s, cpu_s, peak_rss_mb, setup_s); with `--trace 1` it alternates plain
and traced passes and prints the per-layer metrics instead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from tracing import Tracer, is_seconds, layer_metrics

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")     # scratch output, removed per pass
SETUP_RUNS = 7
SETUP_CODE = "import time, pt_horizon; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
WORKLOAD_NAMES = ("box3d", "sweep", "pinch")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "pt_horizon", "__init__.py")):
        fail(f"no src/pt_horizon under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import pt_horizon
    where = os.path.dirname(os.path.dirname(os.path.abspath(pt_horizon.__file__)))
    if where != SRC:
        fail(f"pt_horizon was imported from {where}, not from {SRC}")


def setup_seconds(env) -> float:
    """Fresh interpreter start until `import pt_horizon` returns."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        fail(f"import pt_horizon failed in a fresh interpreter:\n{out.stderr}")
    return float(out.stdout.split()[-1]) - t0


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def measure(workload, seconds: float, trace: bool, trace_path: str):
    """Repeat passes until `seconds` are used; returns (checks, metrics)."""
    from workloads import Checks, load_expected

    expected = load_expected(workload)
    checks = Checks()
    walls = {False: [], True: []}
    cpus = []
    layers = []
    durations = []
    first = None
    start = time.perf_counter()
    os.makedirs(WORK, exist_ok=True)
    while True:
        traced = trace and len(durations) % 2 == 1
        tracer = Tracer() if traced else None
        workdir = tempfile.mkdtemp(dir=WORK)
        t_pass = time.perf_counter()
        try:
            c0, t0 = cpu_seconds(), time.perf_counter()
            try:
                with tracer if traced else contextlib.nullcontext():
                    out = workload.run(workdir)
            except Exception:
                traceback.print_exc()
                checks.check(False, f"{workload.name}: a call raised")
                break
            t1, c1 = time.perf_counter(), cpu_seconds()
            walls[traced].append(t1 - t0)
            if not traced:
                cpus.append(c1 - c0)
            try:
                digests = workload.check(out, checks, workdir, first, expected)
            except Exception:
                traceback.print_exc()
                checks.check(False, f"{workload.name}: checking the outputs raised")
                break
            first = first if first is not None else digests
            if traced:
                layers.append(layer_metrics(tracer))
                if len(layers) == 1:
                    tracer.write(trace_path)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        durations.append(time.perf_counter() - t_pass)
        enough = len(durations) >= (2 if trace else 1)
        if enough and time.perf_counter() - start + statistics.median(durations) > seconds:
            break

    print("perfbench: pass wall_s " + " ".join(
        f"{w:.3f}{'*' if traced else ''}" for traced in (False, True) for w in walls[traced]),
        file=sys.stderr)
    if not walls[trace]:
        return checks, {}
    if not trace:
        return checks, {
            "wall_s": statistics.median(walls[False]),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for later in layers[1:]:
        for key in layers[0]:
            if not is_seconds(key):
                checks.check(later[key] == layers[0][key],
                             f"{key}: {later[key]} in a later traced pass, {layers[0][key]} in the first")
    metrics = {key: statistics.median(m[key] for m in layers) if is_seconds(key) else value
               for key, value in layers[0].items()}
    metrics["trace.wall_s"] = statistics.median(walls[True])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls[False])
    return checks, metrics


def declared_units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer" in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_one(args) -> int:
    # one sweep worker per CPU this process may run on
    os.environ["PT_HORIZON_THREADS"] = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=SRC)
    import_package()
    setup = None
    if not args.trace:
        setup = statistics.median(setup_seconds(env) for _ in range(SETUP_RUNS))

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json.gz")
    checks, metrics = measure(workload, args.seconds, bool(args.trace), trace_path)
    failed = len(checks.failures)
    for what in checks.failures:
        print(f"perfbench: check failed: {what}", file=sys.stderr)

    if not args.trace and metrics:
        metrics["setup_s"] = setup
    units = declared_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(metrics))
    if metrics and missing:
        fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    frac = failed / checks.attempted if checks.attempted else 1.0
    shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()
                      if not args.trace)
    print(f"{args.workload} seed={args.seed} threads={env['PT_HORIZON_THREADS']}  {shown}  "
          f"failed_frac={frac:.4g} ({failed} of {checks.attempted} checks)")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
