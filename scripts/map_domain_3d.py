#!/usr/bin/env python3
"""Count the connected components of the full 3-D reality domain.

Runs the box labelling at one or more resolutions and prints a small JSON
report per run (count, its proven lower bound and whether the count meets
it, per-component sample counts, bounding boxes).

Usage:
    python scripts/map_domain_3d.py [--res 160 [--res 224 ...]] [--eta 0]
"""
import argparse
import json
import sys
import time

from pt_horizon import BoxSpec, components3d


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--res", type=int, action="append", default=None)
    parser.add_argument("--eta", type=float, default=0.0)
    args = parser.parse_args()
    resolutions = args.res or [160]
    for res in resolutions:
        t0 = time.perf_counter()
        report = components3d(BoxSpec(resolution=res, eta=args.eta))
        payload = {
            "resolution": res,
            "eta": args.eta,
            "count": report.count,
            "lower_bound": report.lower_bound,
            "certified": report.certified,
            "seconds": round(time.perf_counter() - t0, 1),
            "components": [
                {"id": s.id, "samples": s.samples, "bbox": s.bbox}
                for s in report.components
            ],
        }
        print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
