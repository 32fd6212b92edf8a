import dataclasses
import json
import math
import os
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pt_horizon import cli, floattext, svgrender, topology
from pt_horizon.svgrender import render_slice_svg


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_origin_inside(self, capsys):
        code, out, _ = run(capsys, "classify", "--a", "0", "--b", "0", "--c", "0")
        assert code == 0
        assert "W = 64" in out
        assert "Q = 9" in out and "P = 10" in out
        assert "verdict: inside" in out

    def test_sqrt5_outside_with_boundary_annotation(self, capsys):
        code, out, _ = run(capsys, "classify", "--a", "0", "--b", "2.2360680", "--c", "0")
        assert code == 1
        assert "outside(W,P-boundary)" in out

    def test_fish_tail_inside(self, capsys):
        code, out, _ = run(capsys, "classify", "--a", "2.9", "--b", "0", "--c", "0")
        assert code == 0
        assert "verdict: inside" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "classify", "--a", "1", "--b", "1", "--c", "1",
                           "--json")
        payload = json.loads(out)
        assert payload["W"] == 16 and payload["Q"] == 5 and payload["P"] == 6
        assert payload["verdict"] == "inside"

    def test_parse_failure_exits_2(self, capsys):
        code, _, _ = run(capsys, "classify", "--a", "0", "--b", "0")
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "classify", "--a", "0", "--b", "0", "--c", "0",
                         "--bogus", "1")
        assert code == 2


class TestSpectrum:
    def test_origin(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--a", "0", "--b", "0", "--c", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_deviation"] < 1e-12
        real_parts = sorted(z[0] for z in payload["oracle"])
        assert real_parts == pytest.approx([-3, -1, 1, 3])

    def test_degenerate_flagged(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--a", str(math.sqrt(8)),
                           "--b", "0", "--c", "0")
        payload = json.loads(out)
        assert payload["oracle_classification"] == "RealDegenerate"

    def test_unit_point(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--a", "1", "--b", "1", "--c", "1")
        payload = json.loads(out)
        real_parts = sorted(z[0] for z in payload["closed_form"])
        expect = sorted([-math.sqrt(5), -1, 1, math.sqrt(5)])
        assert real_parts == pytest.approx(expect)


class TestSlice:
    def test_csv_schema_and_components(self, tmp_path, capsys):
        out_csv = tmp_path / "s.csv"
        code, _, err = run(capsys, "slice", "--fix", "b=0.1", "--res", "96",
                           "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "u,v,W,Q,P,inside,component"
        assert len(lines) == 1 + 96 * 96
        comp_ids = set()
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 7
            inside = fields[5]
            comp = int(fields[6])
            assert inside in ("0", "1")
            if inside == "0":
                assert comp == -1
            else:
                comp_ids.add(comp)
        assert comp_ids == {0, 1, 2}

    def test_empty_slice(self, tmp_path, capsys):
        out_csv = tmp_path / "s.csv"
        code, _, _ = run(capsys, "slice", "--fix", "b=2.2260680", "--res", "64",
                         "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert all(line.split(",")[5:] == ["0", "-1"] for line in lines[1:])

    def test_byte_identical_reruns(self, tmp_path, capsys):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        run(capsys, "slice", "--fix", "c=0", "--res", "64", "--out", str(p1))
        run(capsys, "slice", "--fix", "c=0", "--res", "64", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_svg_output(self, tmp_path, capsys):
        svg = tmp_path / "s.svg"
        code, _, _ = run(capsys, "slice", "--fix", "b=1.5", "--res", "64",
                         "--out", str(tmp_path / "s.csv"), "--svg", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text or "polygon" in text

    def test_unwritable_path_exits_2(self, capsys):
        code, _, err = run(capsys, "slice", "--fix", "b=0.1", "--res", "64",
                           "--out", "/nonexistent-dir/s.csv")
        assert code == 2
        assert "error" in err

    def test_bad_fix_flag(self, capsys):
        code, _, _ = run(capsys, "slice", "--fix", "d=1", "--res", "64")
        assert code == 2

    def test_custom_range(self, tmp_path, capsys):
        out_csv = tmp_path / "s.csv"
        code, _, _ = run(capsys, "slice", "--fix", "b=0.1", "--res", "32",
                         "--range", "a=-1:1", "--range", "c=-1:1",
                         "--out", str(out_csv))
        assert code == 0
        rows = [l.split(",") for l in out_csv.read_text().splitlines()[1:]]
        us = sorted(set(float(r[0]) for r in rows))
        assert us[0] > -1 and us[-1] < 1


# perfbench/workloads.windows(7, 64) for the free axes of a c = 0 slice
SEED7_WINDOW_64 = {"a": (-3.585926760006975, 3.6140732399930253),
                   "b": (-2.2714502580553115, 2.328549741944688)}
SEED7_RANGES = [arg for axis, (lo, hi) in SEED7_WINDOW_64.items()
                for arg in ("--range", f"{axis}={lo!r}:{hi!r}")]


def reference_csv(grid, labels):
    """The per-element writer the streamed one replaced, as the byte reference."""
    def fmt(x):
        return f"{float(x):.17g}"

    lines = ["u,v,W,Q,P,inside,component"]
    res = grid.spec.resolution
    for i in range(res):
        for j in range(res):
            lines.append(",".join((
                fmt(grid.u[i]), fmt(grid.v[j]),
                fmt(grid.W[i, j]), fmt(grid.Q[i, j]), fmt(grid.P[i, j]),
                "1" if grid.membership[i, j] else "0",
                str(int(labels[i, j])),
            )))
    return "\n".join(lines) + "\n"


def reference_rects(grid, width=720):
    """The per-cell rect loop render_slice_svg used to run, as the reference."""
    spec = grid.spec
    u0, u1 = spec.u_range
    v0, v1 = spec.v_range
    scale = width / (u1 - u0)
    res = spec.resolution
    hu = (u1 - u0) / res
    hv = (v1 - v0) / res
    out = []
    for i, j in zip(*grid.membership.nonzero()):
        x = (grid.u[i] - hu / 2 - u0) * scale
        y = (v1 - (grid.v[j] + hv / 2)) * scale
        out.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{hu * scale:.2f}" '
                   f'height="{hv * scale:.2f}"/>')
    return out


def slice_grid(argv):
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    grid, _, labels = cli._run_slice(cfg, cfg.fix_axis, cfg.fix_value)
    return grid, labels


SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, 2.225073858507201e-308, 1e-5, 1e16, 1e17,
            0.1, 1 / 3, -2.5, 64.0, 1.7976931348623157e308]


def random_doubles(n, seed):
    """n doubles from uniformly random bit patterns: every exponent, NaNs too."""
    bits = np.frombuffer(np.random.default_rng(seed).bytes(8 * n), np.uint64)
    return bits.view(np.float64).copy()


def adversarial_slice(grid):
    """`grid` with random-bit W, Q and P (NaN, +-inf and -0.0 among them), a
    random membership, and labels from -1 to 12."""
    rng = np.random.default_rng(11)
    shape = grid.W.shape

    def values(seed):
        x = random_doubles(grid.W.size, seed).reshape(shape)
        x.flat[rng.choice(x.size, 4, replace=False)] = [math.nan, math.inf, -math.inf, -0.0]
        return x

    adversarial = dataclasses.replace(grid, W=values(1), Q=values(2), P=values(3),
                                      membership=rng.random(shape) < 0.5)
    labels = rng.integers(-1, 13, shape)
    assert labels.max() == 12
    return adversarial, labels


def formatted(x):
    """`float_fields` of each value as text."""
    fields = floattext.float_fields(np.asarray(x, np.float64))
    lines = np.concatenate([fields, np.full((len(fields), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def ulp_neighbours(x, n):
    """x and the n doubles on each side of it, with their negatives."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, direction)
            out.append(y)
    return out + [-y for y in out]


class TestFloatFields:
    """`float_fields` against `FLOAT_FORMAT % x`, value by value."""

    @staticmethod
    def mismatches(xs):
        xs = [float(x) for x in xs]
        return [(x, got) for x, got in zip(xs, formatted(xs)) if got != cli.FLOAT_FORMAT % x]

    def test_random_bit_patterns(self):
        assert self.mismatches(random_doubles(1_000_000, 5)) == []

    def test_specials(self):
        assert self.mismatches(SPECIALS) == []

    def test_powers_of_ten_and_neighbours(self):
        xs = [y for k in range(-30, 31) for y in ulp_neighbours(10.0 ** k, 2)]
        assert self.mismatches(xs) == []

    def test_layout_switches_and_fast_path_edges(self):
        # fixed notation from 1e-4 to below 1e17; the fast path on [1e-250, 1e250]
        edges = (1e-5, 1e-4, 1e16, 1e17, 1e-250, 1e250)
        assert self.mismatches([y for x in edges for y in ulp_neighbours(x, 3)]) == []

    def test_exact_ties_take_the_fallback(self):
        # 1 + j 2^-17 and j 2^-25 = j 5^25 10^-25 for small odd j have 18
        # significant digits, the last a 5: 1 + 2^-17 = 1.00000762939453125
        ties = [1 + j * 2.0 ** -17 for j in range(1, 200, 2)] + [2.0 ** -25, 3 * 2.0 ** -25]
        ties += [-t for t in ties[:10]]
        assert f"{ties[0]:.18g}" == "1.00000762939453125"
        assert all(len(f"{abs(t):.25e}".split("e")[0].rstrip("0")) == 19 for t in ties)
        _, _, fast = floattext._rounded_digits(np.array(ties))
        assert not fast.any()
        assert self.mismatches(ties) == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=50))
    def test_any_floats(self, xs):
        assert self.mismatches(xs) == []

    def test_slice_values_take_the_fast_path(self):
        spec = cli._slice_spec(cli.RunConfig("slice", resolution=300), "b", 0.1)
        grid = topology.sample_slice(spec)
        _, _, fast = floattext._rounded_digits(np.stack([grid.W, grid.Q, grid.P]).ravel())
        assert fast.mean() >= 0.99


class TestSliceArtifacts:
    def test_fmt_matches_fstring(self):
        bits = np.frombuffer(np.random.default_rng(0).bytes(8 * 100_000), np.uint64)
        xs = bits.view(np.float64).tolist() + SPECIALS
        assert [x for x in xs if cli.fmt(x) != f"{x:.17g}"] == []
        assert [x for x in xs[-1000:] if cli.fmt(np.float64(x)) != f"{x:.17g}"] == []

    @pytest.mark.parametrize("argv, adversarial", [
        (["--fix", "b=0", "--res", "64"], False),
        (["--fix", "b=0", "--res", "64", "--mode", "real"], False),
        (["--fix", f"b={math.sqrt(5) - 0.01!r}", "--res", "64"], False),
        (["--fix", "c=0", "--res", "64"] + SEED7_RANGES, False),
        (["--fix", "b=0", "--res", "64"], True),
    ], ids=["b0", "b0-real", "b-sqrt5-0.01", "c0-seed7", "adversarial"])
    def test_csv_bytes_match_per_element_writer(self, argv, adversarial, tmp_path, capsys,
                                                monkeypatch):
        argv = ["slice"] + argv
        grid, labels = slice_grid(argv)
        if adversarial:
            grid, labels = adversarial_slice(grid)
            report = types.SimpleNamespace(count=int(labels.max()) + 1)
            monkeypatch.setattr(cli, "_run_slice", lambda *args: (grid, report, labels))
            # blocks of 5 u values, the last of 4
            monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 5 * 64 + 63)
        expect = reference_csv(grid, labels)
        # the contract perfbench counts bytes by: header, then one block per u
        items = list(cli.slice_csv_lines(grid, labels))
        assert items[0] == cli.CSV_HEADER and len(items) == 1 + 64
        # compared as line lists, which pytest reports by first difference
        assert ("\n".join(items) + "\n").split("\n") == expect.split("\n")
        path = tmp_path / "s.csv"
        assert run(capsys, *argv, "--out", str(path))[0] == 0
        assert path.read_bytes().split(b"\n") == expect.encode().split(b"\n")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.split("\n") == expect.split("\n")

    @pytest.mark.parametrize("argv", [
        ["--fix", "b=0.1", "--res", "64"],
        ["--fix", "c=0", "--res", "64"] + SEED7_RANGES,
    ], ids=["b0.1", "c0-seed7"])
    def test_trace_boundary_of_grid_equals_of_spec(self, argv):
        grid, _ = slice_grid(["slice"] + argv)
        for factor in ("W", "Q", "P"):
            for clip in (False, True):
                from_grid = topology.trace_boundary(grid, factor, clip)
                from_spec = topology.trace_boundary(grid.spec, factor, clip)
                assert len(from_grid) == len(from_spec)
                assert len(from_grid) > 0 or clip
                for a, b in zip(from_grid, from_spec):
                    assert (a.factor, a.closed) == (b.factor, b.closed)
                    assert np.array_equal(a.polyline, b.polyline)

    def test_svg_samples_no_slice(self, monkeypatch):
        grid, _ = slice_grid(["slice", "--fix", "b=0.1", "--res", "64"])
        calls = []
        sample = topology.sample_slice
        monkeypatch.setattr(topology, "sample_slice",
                            lambda spec: calls.append(spec) or sample(spec))
        svg = render_slice_svg(grid)
        assert calls == []
        # what the SVG was when each factor sampled the slice again
        monkeypatch.setattr(svgrender, "trace_boundary",
                            lambda g, factor: topology.trace_boundary(g.spec, factor))
        assert render_slice_svg(grid) == svg
        assert len(calls) == 3

    def test_svg_rects_match_per_cell_loop(self):
        grid, _ = slice_grid(["slice", "--fix", "c=0", "--res", "64"] + SEED7_RANGES)
        assert (grid.spec.u_range, grid.spec.v_range) == (SEED7_WINDOW_64["a"],
                                                          SEED7_WINDOW_64["b"])
        lines = render_slice_svg(grid).split("\n")
        start = lines.index('<g fill="#7fb2d9" stroke="none">') + 1
        rects = lines[start:lines.index("</g>", start)]
        assert 0 < len(rects) == int(grid.membership.sum())
        assert rects == reference_rects(grid)


class TestComponents:
    def test_slice_report(self, capsys):
        code, out, _ = run(capsys, "components", "--fix", "c=0", "--res", "200")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 3
        assert len(payload["components"]) == 3
        for comp in payload["components"]:
            assert set(comp) == {"id", "samples", "bbox", "area"}
        assert payload["lower_bound"] == 3 and payload["certified"] is True

    def test_box_report(self, capsys):
        code, out, _ = run(capsys, "components", "--box", "--res", "48")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 3
        assert payload["lower_bound"] == 3 and payload["certified"] is True

    def test_factors_reach_box_only(self, capsys, monkeypatch):
        seen = []

        def fake(spec):
            seen.append(spec.factors)
            return topology.ComponentReport(count=0, labels=None)

        monkeypatch.setattr(topology, "components3d", fake)
        assert run(capsys, "components", "--box", "--res", "48", "--factors", "q")[0] == 0
        assert seen.pop() == ("Q",)
        code, out, _ = run(capsys, "components", "--box", "--res", "48")
        assert code == 0 and seen.pop() == topology.BoxSpec().factors
        assert json.loads(out)["lower_bound"] is None
        assert run(capsys, "components", "--box", "--res", "48", "--factors", "")[0] == 2

    def test_factors_with_fix_rejected(self, capsys):
        code, _, err = run(capsys, "components", "--fix", "c=0", "--res", "64",
                           "--factors", "Q")
        assert code == 2 and "--factors" in err

    def test_needs_exactly_one_target(self, capsys):
        assert run(capsys, "components")[0] == 2
        assert run(capsys, "components", "--fix", "c=0", "--box")[0] == 2

    def test_resolution_guard(self, capsys):
        code, _, err = run(capsys, "components", "--box", "--res", "4000")
        assert code == 2

    def test_res_reaches_spec_unchanged(self, capsys, monkeypatch):
        seen = []

        def fake(spec):
            seen.append(spec.resolution)
            return topology.ComponentReport(count=0, labels=-np.ones(1, np.int64))

        monkeypatch.setattr(topology, "components3d", fake)
        monkeypatch.setattr(topology, "components2d", lambda grid: fake(grid.spec))
        monkeypatch.setattr(topology, "sample_slice",
                            lambda spec: topology.SliceGrid(spec, *(None,) * 6))
        for argv, expect in [(("--box", "--res", "800"), 800), (("--box",), 160),
                             (("--fix", "c=0"), 800), (("--fix", "c=0", "--res", "160"), 160)]:
            assert run(capsys, "components", *argv)[0] == 0
            assert seen.pop() == expect, argv

    def test_res_zero_rejected(self, capsys):
        assert run(capsys, "components", "--fix", "c=0", "--res", "0")[0] == 2


class TestSweep:
    def test_small_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code, out, _ = run(capsys, "sweep", "--b-list", "0.999,1.01", "--res", "200",
                           "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary[cli.fmt(0.999)] == 1
        assert summary[cli.fmt(1.01)] == 2
        for b in (0.999, 1.01):
            assert (out_dir / f"slice_b={cli.fmt(b)}.csv").exists()

    def test_default_b_list(self):
        assert cli.DEFAULT_SWEEP_B[0] == pytest.approx(math.sqrt(5) - 0.01)
        assert 1.0 in cli.DEFAULT_SWEEP_B
        assert 0.4 in cli.DEFAULT_SWEEP_B
        assert len(cli.DEFAULT_SWEEP_B) == 10

    def test_default_sweep_summary_values(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code, _, _ = run(capsys, "sweep", "--res", "400", "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary[cli.fmt(math.sqrt(5) - 0.01)] == 0
        assert summary[cli.fmt(1.01)] == 2
        assert summary[cli.fmt(0.999)] == 1
        assert summary[cli.fmt(0.6)] == 1
        assert summary[cli.fmt(0.2)] == 3
        assert summary[cli.fmt(0.1)] == 3

    def test_thread_env_cap(self, monkeypatch):
        from pt_horizon.topology import thread_count
        monkeypatch.setenv("PT_HORIZON_THREADS", "2")
        assert thread_count() == 2
        monkeypatch.setenv("PT_HORIZON_THREADS", "bogus")
        assert thread_count() >= 1


class TestVerify:
    def test_exit_zero_and_schema(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 8
        statuses = {e["name"]: e["status"] for e in payload}
        assert statuses["w_forms"] == "Proved"
        flagged = [e for e in payload if "printed-form mismatch" in e["detail"]]
        assert len(flagged) == 1

    def test_exit_one_on_failure(self, monkeypatch, capsys):
        from pt_horizon import identities

        def broken_run_all(seed=identities.DEFAULT_SEED):
            return [identities.IdentityResult(name="w_forms", status="Fails",
                                              witness=(1, 2, 3), detail="injected")]
        monkeypatch.setattr(identities, "run_all", broken_run_all)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        payload = json.loads(out)
        assert payload[0]["witness"] == [1, 2, 3]

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--out", str(path))
        assert code == 0
        assert len(json.loads(path.read_text())) == 8
