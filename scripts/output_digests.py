#!/usr/bin/env python3
"""Print the outputs of every benchmark workload on seeds 0-9 as JSON digests.

Run from the root of a checkout; the package is imported from ./src and the
workloads from perfbench/workloads.py, which this script only reads:

    python3 scripts/output_digests.py > digests.json

For each workload and seed it runs one pass into a temporary directory and
prints the sha256 of every label grid, CSV and SVG, the component counts,
and the checks that failed.  Two checkouts produce the same outputs exactly
when their files compare equal (`cmp`).
"""
import json
import os
import shutil
import sys
import tempfile

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from workloads import WORKLOADS, Checks, load_expected  # noqa: E402

SEEDS = range(10)


def counts(result, workdir):
    """Component counts of one pass: per report, or per b from the sweep's summary."""
    if isinstance(result, list):            # pinch: one report per slice
        return [rep.count for rep in result]
    if isinstance(result, int):             # sweep: the CLI's exit code
        if result != 0:
            return None
        with open(os.path.join(workdir, "summary.json")) as fh:
            return json.load(fh)
    return [result.count]                   # box3d


def digest_run(cls, seed: int) -> dict:
    workload = cls(seed)
    workdir = tempfile.mkdtemp()
    try:
        checks = Checks()
        result = workload.run(workdir)
        digests = workload.check(result, checks, workdir, None, load_expected(workload))
        return {"digests": digests, "counts": counts(result, workdir),
                "failed": checks.failures}
    finally:
        shutil.rmtree(workdir)


def main() -> int:
    runs = {f"{name} seed={seed}": digest_run(cls, seed)
            for name, cls in sorted(WORKLOADS.items()) for seed in SEEDS}
    json.dump(runs, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
