"""Tests of the benchmark's tracing, on small grids.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from pt_horizon import cli, oracle, segments, svgrender, topology  # noqa: E402
from pt_horizon.topology import BoxSpec, Mode, SliceSpec  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402

MODULES = (cli, oracle, segments, svgrender, topology)


def _workload(tmp_dir):
    """Labels and CSV/SVG bytes from every entry point the benchmark drives."""
    out = {"box": topology.components3d(BoxSpec(resolution=32)).labels}
    for mode in (Mode.STRICT_SIMPLE, Mode.REAL_ONLY):
        grid = topology.sample_slice(SliceSpec("b", 0.0, resolution=64, mode=mode))
        out[mode.value] = topology.components2d(grid).labels
    csv, svg = os.path.join(tmp_dir, "s.csv"), os.path.join(tmp_dir, "s.svg")
    assert cli.main(["slice", "--fix", "b=0.1", "--res", "64", "--out", csv, "--svg", svg]) == 0
    for path in (csv, svg):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def test_tracer_restores_names_and_leaves_results_unchanged(tmp_path):
    before = {m.__name__: dict(vars(m)) for m in MODULES}
    plain = _workload(tmp_path)
    with Tracer() as tracer:
        replaced = [(m.__name__, k) for m in MODULES for k, v in vars(m).items()
                    if before[m.__name__].get(k) is not v]
        traced = _workload(tmp_path)
    assert replaced, "nothing was wrapped"
    for m in MODULES:
        now = vars(m)
        assert now.keys() == before[m.__name__].keys()
        changed = [k for k, v in before[m.__name__].items() if now[k] is not v]
        assert changed == [], f"{m.__name__} not restored: {changed}"
    assert plain.keys() == traced.keys()
    for key in plain:
        assert np.array_equal(plain[key], traced[key]), key
    metrics = layer_metrics(tracer)
    assert metrics["segments.calls"] > 0 and metrics["cli.csv_bytes"] == len(plain["s.csv"])
    assert metrics["svgrender.svg_bytes"] == len(plain["s.svg"])


def _traced_slice(spec):
    grid = topology.sample_slice(spec)
    with Tracer() as tracer:
        report = topology.components2d(grid)
    return grid, report, layer_metrics(tracer)


@pytest.mark.parametrize("b", [0.1, 0.999])
def test_axis_phase_matches_membership_grid(b):
    grid, report, m = _traced_slice(SliceSpec("b", b, resolution=64))
    member = grid.membership
    pairs = (np.count_nonzero(member[1:, :] & member[:-1, :])
             + np.count_nonzero(member[:, 1:] & member[:, :-1]))
    assert m["segments.axis.tested"] == pairs
    assert m["segments.W.tested"] == sum(m[f"segments.{ph}.tested"]
                                         for ph in ("axis", "r2", "rescue"))
    assert m["topology.rescue.components"] == report.count


@pytest.mark.parametrize("fixed,value,nonzero", [
    ("b", 0.0, True), ("b", 0.1, False), ("c", 0.0, False)])
def test_w_plane_only_on_b0_slices(fixed, value, nonzero):
    _, _, m = _traced_slice(SliceSpec(fixed, value, resolution=64))
    assert (m["segments.w_plane"] > 0) == nonzero


def test_boundary_bisection_counts_as_model_evaluation():
    spec = SliceSpec("b", 0.1, resolution=64)
    with Tracer() as sampled:
        topology.sample_slice(spec)
    with Tracer() as traced:
        curves = topology.trace_boundary(spec, "W")
    assert curves
    # the 60 bisection rounds evaluate every vertex on top of the sample grid
    assert (layer_metrics(traced)["model.eval_points"]
            > 60 + layer_metrics(sampled)["model.eval_points"])


def test_wrapper_overhead_is_not_program_time():
    tracer = Tracer()
    seg = {"factor": "W", "n": 4, "accepted": 4, "phase": "axis"}
    # labelling [0, 10] > mask [1, 5] (own overhead 1) > minimum [2, 3] (0.5)
    spans = [["topology.components2d", 0.0, 10.0, -1, 0, None, 0.0],
             ["segments.factor_positive_mask", 1.0, 5.0, 0, 0, seg, 1.0],
             ["segments.segment_minimum", 2.0, 3.0, 1, 0, None, 0.5]]
    tracer._threads.append((0, spans))
    m = layer_metrics(tracer)
    assert m["segments.float_s"] == 1.0
    assert m["segments.axis.s"] == 3.5              # 4 less the 0.5 below it
    assert m["topology.label_s"] == 8.5             # 10 less 1 + 0.5
    assert m["topology.self_s"] == 8.5 - 3.5
