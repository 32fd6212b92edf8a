#!/usr/bin/env python3
"""Write perfbench/expected.json: the seed-0 sha256 of every artifact.

Run once, from the root of a checkout, at the commit whose outputs are the
reference (the digests were recorded at the seed commit):

    python3 perfbench/record_expected.py
"""
import json
import os
import shutil
import sys
import tempfile

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import EXPECTED_PATH, WORKLOADS, Checks  # noqa: E402


def main() -> int:
    entries = {}
    for name, cls in WORKLOADS.items():
        workload = cls(0)
        workdir = tempfile.mkdtemp(dir=ROOT)
        try:
            checks = Checks()
            # `expected` is not known yet, so only the digest checks fail here
            digests = workload.check(workload.run(workdir), checks, workdir, None, {})
        finally:
            shutil.rmtree(workdir)
        real = [f for f in checks.failures if "expected.json" not in f]
        if real:
            print("\n".join(real), file=sys.stderr)
            return 1
        entries[name] = {"res": cls.res, "digests": digests}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
