import json
import math
import os

import numpy as np
import pytest

from pt_horizon import cli, topology


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
        assert all(line.split(",")[5] == "0" for line in lines[1:])

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
