"""The benchmark's workloads: inputs made from a seed, one timed pass through
pt_horizon's public entry points, and the checks on what the pass produced.

Seed 0 is the canonical grid set of the acceptance suite.  A seed k > 0
shifts the window of every free axis by one uniform offset in (-h/2, h/2),
h being that axis' cell width, so the grids move but the amount of work does
not.  Fixed planes (b = 0, c = 0, the sweep's b values) stay exact.  The
program only ever sees the resulting ranges.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from pt_horizon import cli, topology
from pt_horizon.topology import BoxSpec, Mode, SliceSpec

# Resolutions are set so that one pass takes seconds, not minutes; see
# README.md for how they relate to the acceptance suite's sizes.
BOX_RES = 48
SWEEP_RES = 300
PINCH_RES = 800

BOX_COUNT = 3
# b -> component count, as asserted by tests/test_acceptance.py
FIGURE_SEQUENCE = {
    math.sqrt(5) - 0.01: 0,
    math.sqrt(5) - 1.0: 2,
    1.01: 2,
    0.999: 1,
    0.6: 1,
    0.2: 3,
    0.1: 3,
}
# (fixed axis, value, mode, asserted count)
PINCH_SLICES = (
    ("b", 0.0, Mode.STRICT_SIMPLE, 3),
    ("b", 0.0, Mode.REAL_ONLY, 1),
    ("c", 0.0, Mode.STRICT_SIMPLE, 3),
)
CSV_HEADER = b"u,v,W,Q,P,inside,component\n"

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def windows(seed: int, res: int) -> dict:
    """Axis -> (lo, hi): the default window, shifted for seed > 0."""
    shift = np.random.default_rng(seed).uniform(-0.5, 0.5, 3) if seed else np.zeros(3)
    out = {}
    for k, axis in enumerate(topology.AXES):
        lo, hi = topology.DEFAULT_RANGES[axis]
        d = float(shift[k]) * (hi - lo) / res
        out[axis] = (lo + d, hi + d)
    return out


def label_digest(labels: np.ndarray) -> str:
    h = hashlib.sha256(repr(labels.shape).encode())
    h.update(np.ascontiguousarray(labels, dtype="<i8").tobytes())
    return h.hexdigest()


class Checks:
    """Attempted and failed checks of one run; failures keep a description."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _check_labels(checks, what, count, labels, expect):
    checks.check(count == expect, f"{what}: count {count}, expected {expect}")
    top = int(labels.max()) if labels is not None and labels.size else -1
    checks.check(top + 1 == count, f"{what}: max label {top} + 1 != count {count}")


class Box3d:
    """The paper's headline 3-D component count, strict mode."""

    name = "box3d"
    res = BOX_RES

    def __init__(self, seed: int):
        self.seed = seed
        w = windows(seed, self.res)
        self.spec = BoxSpec(w["a"], w["b"], w["c"], resolution=self.res)

    def run(self, workdir):
        return topology.components3d(self.spec)

    def check(self, report, checks, workdir, first, expected):
        _check_labels(checks, "box3d", report.count, report.labels, BOX_COUNT)
        digests = {"labels": label_digest(report.labels)}
        if self.seed == 0:
            checks.check(digests == expected, "box3d: label sha256 differs from expected.json")
        return digests


class Pinch:
    """The degenerate b = 0 plane read both ways, and the c = 0 slice."""

    name = "pinch"
    res = PINCH_RES

    def __init__(self, seed: int):
        self.seed = seed
        w = windows(seed, self.res)
        self.specs = []
        for fixed, value, mode, _ in PINCH_SLICES:
            fu, fv = topology.free_axes(fixed)
            self.specs.append(SliceSpec(fixed, value, w[fu], w[fv],
                                        resolution=self.res, mode=mode))

    def run(self, workdir):
        return [topology.components2d(topology.sample_slice(spec)) for spec in self.specs]

    def check(self, reports, checks, workdir, first, expected):
        digests = {}
        for spec, rep, (_, _, _, expect) in zip(self.specs, reports, PINCH_SLICES):
            what = f"{spec.fixed_axis}={spec.fixed_value} {spec.mode.value}"
            _check_labels(checks, what, rep.count, rep.labels, expect)
            digests[what] = label_digest(rep.labels)
        if self.seed == 0:
            for key, digest in digests.items():
                checks.check(expected.get(key) == digest,
                             f"{key}: label sha256 differs from expected.json")
        return digests


class Sweep:
    """`pt-horizon sweep --svg` over the default b values into a scratch dir."""

    name = "sweep"
    res = SWEEP_RES

    def __init__(self, seed: int):
        self.seed = seed
        w = windows(seed, self.res)
        self.argv = ["sweep", "--res", str(self.res), "--svg",
                     "--range", f"a={w['a'][0]!r}:{w['a'][1]!r}",
                     "--range", f"c={w['c'][0]!r}:{w['c'][1]!r}"]

    def run(self, workdir):
        with contextlib.redirect_stdout(io.StringIO()):   # the summary JSON
            return cli.main(self.argv + ["--out", workdir])

    def check(self, code, checks, workdir, first, expected):
        checks.check(code == 0, f"sweep: exit code {code}")
        if code != 0:
            return {}
        with open(os.path.join(workdir, "summary.json")) as fh:
            summary = json.load(fh)
        digests = {}
        for b in cli.DEFAULT_SWEEP_B:
            stem = f"slice_b={cli.fmt(b)}"
            count = summary.get(cli.fmt(b))
            if b in FIGURE_SEQUENCE:
                checks.check(count == FIGURE_SEQUENCE[b],
                             f"sweep b={cli.fmt(b)}: count {count}, expected {FIGURE_SEQUENCE[b]}")
            csv_digest, shape_error = _scan_csv(os.path.join(workdir, stem + ".csv"), count)
            if first is None:
                checks.check(shape_error is None, f"sweep {stem}.csv: {shape_error}")
            else:
                # same bytes as the first pass, whose shape was checked
                checks.check(csv_digest == first.get(stem + ".csv"),
                             f"sweep {stem}.csv differs from the first pass")
            digests[stem + ".csv"] = csv_digest
            with open(os.path.join(workdir, stem + ".svg"), "rb") as fh:
                digests[stem + ".svg"] = hashlib.sha256(fh.read()).hexdigest()
        if self.seed == 0:
            for key, digest in digests.items():
                checks.check(expected.get(key) == digest,
                             f"sweep {key}: sha256 differs from expected.json")
        return digests


def _scan_csv(path, count):
    """(sha256, None) for a well-formed slice CSV, else (sha256, problem).

    Well-formed: the schema header, res^2 rows, and max component + 1 equal
    to the count the sweep reported.  Streams the file to keep memory flat.
    """
    h = hashlib.sha256()
    rows, top = 0, -1
    with open(path, "rb") as fh:
        header = fh.readline()
        h.update(header)
        for line in fh:
            h.update(line)
            rows += 1
            comp = int(line[line.rindex(b",") + 1:])
            if comp > top:
                top = comp
    problem = None
    if header != CSV_HEADER:
        problem = f"header {header!r}"
    elif rows != SWEEP_RES ** 2:
        problem = f"{rows} rows, expected {SWEEP_RES ** 2}"
    elif count is None or top + 1 != count:
        problem = f"max component {top} + 1 != reported count {count}"
    return h.hexdigest(), problem


WORKLOADS = {w.name: w for w in (Box3d, Sweep, Pinch)}


def load_expected(workload) -> dict:
    """Seed-0 digests recorded for `workload` at its current resolution."""
    with open(EXPECTED_PATH) as fh:
        entry = json.load(fh)[workload.name]
    return entry["digests"] if entry["res"] == workload.res else {}
