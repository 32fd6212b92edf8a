#!/usr/bin/env python3
"""Run the whole benchmark schedule and write a BENCH_*.json record.

From the root of a checkout:

    python3 perfbench/record.py --out perfbench/BENCH_seed.json

It makes two sets of untraced runs, one run per workload and seed in each
(every run a fresh `run.py` process, one at a time), then two traced runs
per workload at the first seed.  For each set the record holds every
end-to-end metric per workload and seed, their median and quartile spread
((q3 - q1) / median, from `statistics.quantiles`); then the ratio of the
second set's medians to the first's, the traced per-layer numbers, whether
the traced counts repeated, and the run context (cores, CPU model, library
versions, PT_HORIZON_THREADS).
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from tracing import is_seconds

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEEDS = range(10)
SETS = 2


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if not trace), flush=True)
    return result


def cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def context(spec):
    import numpy
    import scipy
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return {
        "commit": proc.stdout.strip() or None,
        "cores": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "PT_HORIZON_THREADS": str(len(os.sched_getaffinity(0))),
        "run_seconds": spec["run_seconds"],
    }


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: the workloads BENCHMARK.json declares")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    record = {"context": context(spec), "workloads": {name: {"sets": []} for name in names}}

    def save():
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for _ in range(SETS):
        for name in names:
            runs = {seed: run(name, seed, seconds, 0) for seed in SEEDS}
            metrics = {m["name"]: [runs[s]["metrics"][m["name"]]["value"] for s in SEEDS]
                       for m in spec["end_to_end"]}
            record["workloads"][name]["sets"].append({
                "per_seed": {str(s): {"correct": r["correct"], "attempted": r["attempted"],
                                      "failed": r["failed"],
                                      **{k: v["value"] for k, v in r["metrics"].items()}}
                             for s, r in runs.items()},
                "end_to_end": {k: summary(v) for k, v in metrics.items()},
            })
            save()
    for name, w in record["workloads"].items():
        first, last = (s["end_to_end"] for s in (w["sets"][0], w["sets"][-1]))
        w["median_ratio"] = {k: last[k]["median"] / first[k]["median"] for k in first}
        traced = [run(name, SEEDS[0], seconds, 1) for _ in range(2)]
        layer = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        again = {k: v["value"] for k, v in traced[1]["metrics"].items()}
        w["per_layer"] = {"seed": SEEDS[0], "metrics": layer,
                          "counts_repeat": all(layer[k] == again[k] for k in layer
                                               if not is_seconds(k))}
        save()
    for name, w in record["workloads"].items():
        for metric, ratio in w["median_ratio"].items():
            spreads = " ".join(f"{s['end_to_end'][metric]['spread']:.3f}" for s in w["sets"])
            print(f"{name:6s} {metric:12s} median={w['sets'][0]['end_to_end'][metric]['median']:.4g} "
                  f"spread={spreads} set ratio={ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
