import itertools
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

from pt_horizon import (BoxSpec, CouplingPoint, InvalidInputError, Mode,
                        SliceSpec, components2d, components3d, membership,
                        sample_slice, segment_connected, trace_boundary)
from pt_horizon import oracle, topology
from pt_horizon.model import eval_p, eval_q, eval_w
from pt_horizon.topology import (LINK_RADIUS, _canonical_labels, _edges_ok,
                                 _half_offsets, _offset_slices, _pair_indices,
                                 _sign_classes, grid_centers,
                                 grid_oracle_mismatches)


class TestMembership:
    def test_origin(self):
        assert membership((0, 0, 0), 0.0, Mode.STRICT_SIMPLE) is True

    def test_pinch_point_modes(self):
        p = (math.sqrt(8), 0, 0)
        assert membership(p, 0.0, Mode.STRICT_SIMPLE) is False
        assert membership(p, 0.0, Mode.REAL_ONLY) is True

    def test_complex_point_both_modes(self):
        p = (0, math.sqrt(5), 0)
        for eta in (0.0, 1e-6, 0.5):
            assert membership(p, eta, Mode.STRICT_SIMPLE) is False
            assert membership(p, eta, Mode.REAL_ONLY) is False

    def test_negative_eta_rejected(self):
        with pytest.raises(InvalidInputError):
            membership((0, 0, 0), -1.0)


class TestSegmentConnected:
    def test_pinch_blocked(self):
        r8 = math.sqrt(8)
        assert segment_connected((r8 - 0.01, 0, 0), (r8 + 0.01, 0, 0), 0.0) is False

    def test_short_safe_segment(self):
        assert segment_connected((0, 0, 0), (0.1, 0, 0), 0.0) is True

    def test_fish_interval_segments(self):
        assert segment_connected((2.85, 0, 0), (2.95, 0, 0), 0.0) is True
        assert segment_connected((2.80, 0, 0), (2.90, 0, 0), 0.0) is False

    def test_real_only_heals_touch(self):
        r8 = math.sqrt(8)
        assert segment_connected((r8 - 0.01, 0, 0), (r8 + 0.01, 0, 0), 0.0,
                                 Mode.REAL_ONLY) is True

    def test_real_only_heals_touch_with_factor_subset(self):
        # a W,Q box admits W-touch samples, so its links heal touches too
        r8 = math.sqrt(8)
        p0 = np.array([[r8 - 0.01, 0.0, 0.0]])
        p1 = np.array([[r8 + 0.01, 0.0, 0.0]])
        assert _edges_ok(p0, p1, 0.0, Mode.REAL_ONLY, ("W", "Q"))[0]
        assert not _edges_ok(p0, p1, 0.0, Mode.STRICT_SIMPLE, ("W", "Q"))[0]

    def test_real_only_does_not_heal_crossing(self):
        assert segment_connected((0, 0.5, 0), (0, 1.5, 0), 0.0, Mode.REAL_ONLY) is False


class TestSliceSpec:
    def test_defaults(self):
        spec = SliceSpec("b", 0.1, resolution=64)
        assert spec.u_axis == "a" and spec.v_axis == "c"
        assert spec.u_range == (-3.6, 3.6)
        assert spec.v_range == (-3.6, 3.6)

    def test_fixed_a_free_axes(self):
        spec = SliceSpec("a", 0.0, resolution=64)
        assert spec.u_axis == "b" and spec.v_axis == "c"
        assert spec.u_range == (-2.3, 2.3)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SliceSpec("x", 0.0)
        with pytest.raises(InvalidInputError):
            SliceSpec("b", 0.0, resolution=8)
        with pytest.raises(InvalidInputError):
            SliceSpec("b", 0.0, u_range=(1.0, 1.0))
        with pytest.raises(InvalidInputError):
            SliceSpec("b", 0.0, eta=-1e-9)


class TestSampleSlice:
    def test_cell_center_sampling(self):
        spec = SliceSpec("b", 0.1, resolution=64)
        grid = sample_slice(spec)
        h = 7.2 / 64
        assert grid.u[0] == pytest.approx(-3.6 + h / 2)
        assert grid.u[-1] == pytest.approx(3.6 - h / 2)
        assert grid.membership.shape == (64, 64)

    def test_symmetry_under_sign_flip(self):
        # W, Q, P are invariant under (a, c) -> (-a, -c) at fixed b
        spec = SliceSpec("b", 0.1, resolution=64)
        grid = sample_slice(spec)
        assert np.array_equal(grid.membership, grid.membership[::-1, ::-1])
        assert np.array_equal(grid.W, grid.W[::-1, ::-1])

    def test_symmetry_under_b_flip(self):
        up = sample_slice(SliceSpec("b", 0.37, resolution=48))
        dn = sample_slice(SliceSpec("b", -0.37, resolution=48))
        assert np.array_equal(up.membership, dn.membership)
        assert np.array_equal(up.W, dn.W)

    def test_empty_slice_above_touching_plane(self):
        grid = sample_slice(SliceSpec("b", math.sqrt(5) - 0.01, resolution=64))
        assert not grid.membership.any()

    def test_values_match_direct_evaluation(self):
        spec = SliceSpec("c", 0.5, resolution=32)
        grid = sample_slice(spec)
        i, j = 7, 21
        a, b = grid.u[i], grid.v[j]
        assert grid.W[i, j] == eval_w(a, b, 0.5)
        assert grid.Q[i, j] == eval_q(a, b, 0.5)
        assert grid.P[i, j] == eval_p(a, b, 0.5)


class TestComponents2D:
    def test_counts_small_resolution(self):
        for b, expect in [(0.999, 1), (1.01, 2), (0.2, 3), (0.1, 3)]:
            rep = components2d(sample_slice(SliceSpec("b", b, resolution=200)))
            assert rep.count == expect, f"b={b}"

    def test_c0_slice_three_components(self):
        rep = components2d(sample_slice(SliceSpec("c", 0.0, resolution=200)))
        assert rep.count == 3

    def test_a0_slice_single_component(self):
        rep = components2d(sample_slice(SliceSpec("a", 0.0, resolution=200)))
        assert rep.count == 1

    def test_empty_slice(self):
        rep = components2d(sample_slice(SliceSpec("b", math.sqrt(5) - 0.01,
                                                  resolution=64)))
        assert rep.count == 0

    def test_labels_deterministic_and_canonical(self):
        spec = SliceSpec("c", 0.0, resolution=128)
        r1 = components2d(sample_slice(spec))
        r2 = components2d(sample_slice(spec))
        assert np.array_equal(r1.labels, r2.labels)
        seen = []
        for lbl in r1.labels.ravel():
            if lbl >= 0 and lbl not in seen:
                seen.append(lbl)
        assert seen == sorted(seen)  # first-encounter order is 0, 1, 2, ...

    def test_component_stats(self):
        rep = components2d(sample_slice(SliceSpec("b", 0.1, resolution=128)))
        total = sum(s.samples for s in rep.components)
        assert total == sum(1 for x in rep.labels.ravel() if x >= 0)
        for s in rep.components:
            assert s.area == pytest.approx(s.samples * (7.2 / 128) ** 2)

    def test_eta_stability(self):
        for eta in (0.0, 1e-9, 1e-6):
            rep = components2d(sample_slice(SliceSpec("c", 0.0, resolution=200,
                                                      eta=eta)))
            assert rep.count == 3, f"eta={eta}"

    def test_b0_modes(self):
        strict = components2d(sample_slice(SliceSpec("b", 0.0, resolution=200)))
        assert (strict.count, strict.lower_bound, strict.certified) == (3, 3, True)
        real = components2d(sample_slice(SliceSpec("b", 0.0, resolution=200,
                                                   mode=Mode.REAL_ONLY)))
        assert real.count == 1
        assert real.lower_bound is None and real.certified is None
        (alo, ahi), (clo, chi) = real.components[0].bbox
        assert -3 < alo < -2.9 and 2.9 < ahi < 3
        assert -1 < clo < -0.98 and 0.98 < chi < 1


def _canonical_labels_loop(labels):
    # the per-member reference: ids in order of first row-major encounter
    flat = labels.ravel()
    out = -np.ones_like(flat)
    mapping = {}
    for pos in np.nonzero(flat >= 0)[0]:
        out[pos] = mapping.setdefault(flat[pos], len(mapping))
    return out.reshape(labels.shape)


class TestCanonicalLabels:
    def test_matches_loop_on_random_labels(self):
        gen = np.random.default_rng(7)
        for shape in [(1,), (5, 7), (30, 40), (6, 5, 4)]:
            for n_labels in (1, 3, 50):
                labels = gen.integers(-1, n_labels, size=shape)
                got = _canonical_labels(labels)
                assert got.dtype == labels.dtype
                assert np.array_equal(got, _canonical_labels_loop(labels))

    def test_no_members(self):
        labels = -np.ones((4, 4), np.int64)
        assert np.array_equal(_canonical_labels(labels), labels)


class TestGridOracleAgreement:
    @pytest.mark.parametrize("axis,val", [("b", 0.1), ("b", 1.01), ("c", 0.0),
                                          ("a", 0.0), ("b", 0.0)])
    def test_no_mismatches(self, axis, val):
        grid = sample_slice(SliceSpec(axis, val, resolution=96))
        assert grid_oracle_mismatches(grid) == 0


# the window perfbench's workloads.windows(4, 48) gives: the a ~ -3 tail
# splits into its b > 0 and b < 0 halves between two grid layers
SEED4_WINDOW_48 = dict(a_range=(-3.533541584164145, 3.666458415835855),
                       b_range=(-2.29891444285529, 2.3010855571447095),
                       c_range=(-3.5285634441438445, 3.6714365558561557))


class TestComponents3D:
    def test_default_box_small(self):
        rep = components3d(BoxSpec(resolution=48))
        assert (rep.count, rep.lower_bound, rep.certified) == (3, 3, True)

    def test_shifted_window_reports_uncertified_count(self):
        rep = components3d(BoxSpec(resolution=48, **SEED4_WINDOW_48))
        assert (rep.count, rep.lower_bound, rep.certified) == (4, 3, False)

    def test_rescue_batches_its_offsets(self, monkeypatch):
        # this grid's 192 rescue candidates, spread over 94 offsets, fit in
        # one batch of n_mem segments
        gc_cls = topology._GridComponents
        test, rescue = gc_cls._test, gc_cls._rescue_edges
        calls = {"test": 0, "rescue": 0}

        def counted_test(self, i0, i1):
            calls["test"] += 1
            return test(self, i0, i1)

        def counted_rescue(self, label):
            before = calls["test"]
            out = rescue(self, label)
            calls["rescue"] += calls["test"] - before
            return out

        monkeypatch.setattr(gc_cls, "_test", counted_test)
        monkeypatch.setattr(gc_cls, "_rescue_edges", counted_rescue)
        rep = components3d(BoxSpec(resolution=48, **SEED4_WINDOW_48))
        assert (rep.count, rep.lower_bound, rep.certified) == (4, 3, False)
        assert 1 <= calls["rescue"] <= 2

    def test_p_only_single_ellipsoid(self):
        rep = components3d(BoxSpec(resolution=48, factors=("P",)))
        assert rep.count == 1
        assert rep.lower_bound is None and rep.certified is None

    def test_q_only_three_pieces(self):
        rep = components3d(BoxSpec(resolution=48, factors=("Q",)))
        assert rep.count == 3
        assert rep.lower_bound is None

    def test_resolution_guard(self):
        with pytest.raises(InvalidInputError):
            BoxSpec(resolution=16)
        with pytest.raises(InvalidInputError):
            BoxSpec(resolution=1001)

    def test_factor_guard(self):
        with pytest.raises(InvalidInputError):
            BoxSpec(resolution=48, factors=("X",))


def _exact_s_sign(a, c):
    from fractions import Fraction
    s = 8 + Fraction(float(c)) ** 2 - Fraction(float(a)) ** 2
    return (s > 0) - (s < 0)


class TestSignClasses:
    def test_exact_sign_next_to_s_zero(self):
        # b = 0 points a few ulps around a = +-sqrt(8 + c^2), where float s
        # is pure rounding noise
        pts, expect = [], []
        for c in (0.0, 0.3, -1.7, 2.9):
            for root in (math.sqrt(8 + c * c), -math.sqrt(8 + c * c)):
                a = root
                for _ in range(6):
                    a = np.nextafter(a, -np.inf)
                for _ in range(12):
                    sign = _exact_s_sign(a, c)
                    if sign:
                        pts.append((a, 0.0, c))
                        expect.append(0 if sign > 0 else (1 if a > 0 else 2))
                    a = np.nextafter(a, np.inf)
        got = _sign_classes(np.array(pts))
        assert got.dtype == np.int8
        assert got.tolist() == expect
        assert set(expect) == {0, 1, 2}

    def test_exact_zero_is_an_error(self):
        with pytest.raises(RuntimeError):
            _sign_classes(np.array([[3.0, 0.0, 1.0]]))   # 8 + 1 - 9 = 0


def _report_points(target):
    """(labels, member points) of a SliceSpec or BoxSpec's components."""
    if isinstance(target, SliceSpec):
        grid = sample_slice(target)
        rep = components2d(grid)
        ii, jj = np.nonzero(rep.labels >= 0)
        pts = np.array([grid.point(i, j) for i, j in zip(ii, jj)])
    else:
        rep = components3d(target)
        xs = [grid_centers(r, target.resolution)
              for r in (target.a_range, target.b_range, target.c_range)]
        idx = np.nonzero(rep.labels >= 0)
        pts = np.stack([x[i] for x, i in zip(xs, idx)], axis=-1)
    return rep, pts


# (grid, count); rescue links merge fragments at b = sqrt5 - 1 and b = 0.1
FILTER_GRIDS = [
    (BoxSpec(resolution=48), 3),
    (BoxSpec(resolution=48, **SEED4_WINDOW_48), 4),
    (SliceSpec("c", 0.0, resolution=400), 3),
    (SliceSpec("b", 0.0, resolution=400), 3),
    (SliceSpec("b", math.sqrt(5) - 1, resolution=300), 2),
    (SliceSpec("b", 0.1, resolution=400), 3),
]


class TestRescueClassFilter:
    @pytest.mark.parametrize("target,count", FILTER_GRIDS,
                             ids=["box48", "box48-seed4", "c0", "b0", "b-sqrt5-1", "b0.1"])
    def test_filter_keeps_labels(self, target, count, monkeypatch):
        rep, pts = _report_points(target)
        assert rep.count == count
        # every component lies in exactly one sign class
        cls = _sign_classes(pts)
        lab = rep.labels[rep.labels >= 0]
        for k in range(rep.count):
            assert len(np.unique(cls[lab == k])) == 1
        assert rep.lower_bound == len(np.unique(cls))
        # all classes 0 is the unfiltered search
        monkeypatch.setattr(topology, "_sign_classes",
                            lambda p: np.zeros(len(p), np.int8))
        full, _ = _report_points(target)
        assert full.count == rep.count
        assert np.array_equal(full.labels, rep.labels)


class _ReferenceComponents(topology._GridComponents):
    """Labelling that relabels the member graph of every link accepted so
    far after each phase, with pair indices taken from a full-grid arange."""

    def _edges_for_offsets(self, offs, label=None):
        member, shape = self.member, self.shape
        flat = np.arange(member.size).reshape(shape)
        rows, cols = [], []
        for off in offs:
            sl0, sl1 = _offset_slices(shape, off)
            pair = member[sl0] & member[sl1]
            if label is not None:
                pair &= label[sl0] != label[sl1]
            if not pair.any():
                continue
            i0 = flat[sl0][pair]
            i1 = flat[sl1][pair]
            ok = self._test(i0, i1)
            rows.append(i0[ok])
            cols.append(i1[ok])
        return rows, cols

    def _label(self, rows, cols):
        r = self.idx[np.concatenate(rows)] if rows else np.array([], np.int64)
        c = self.idx[np.concatenate(cols)] if cols else np.array([], np.int64)
        g = sparse.coo_matrix((np.ones(len(r), np.int8), (r, c)),
                              shape=(self.n_mem, self.n_mem))
        n, lab = csgraph.connected_components(g.tocsr(), directed=False)
        full = -np.ones(self.member.size, np.int64)
        full[self.member.ravel()] = lab
        return n, full.reshape(self.shape)

    def run(self):
        if self.n_mem == 0:
            return 0, None
        nd = self.nd
        axis_offs = [tuple(int(i == k) for i in range(nd)) for k in range(nd)]
        rows, cols = self._edges_for_offsets(axis_offs)
        n, lab = self._label(rows, cols)
        extra = [o for o in _half_offsets(nd, LINK_RADIUS) if o not in axis_offs]
        r2, c2 = self._edges_for_offsets(extra, label=lab)
        if r2:
            rows += r2
            cols += c2
            n, lab = self._label(rows, cols)
        r3, c3 = self._rescue_edges(lab)
        if r3:
            rows += r3
            cols += c3
            n, lab = self._label(rows, cols)
        return n, lab


def _report(target):
    if isinstance(target, SliceSpec):
        return components2d(sample_slice(target))
    return components3d(target)


class TestPhaseMerging:
    @pytest.mark.parametrize("target", [
        BoxSpec(resolution=48, **SEED4_WINDOW_48),
        SliceSpec("b", math.sqrt(5) - 1, resolution=300),
        SliceSpec("b", 0.0, resolution=400, mode=Mode.REAL_ONLY),
        SliceSpec("c", 0.0, resolution=400),
    ], ids=["box48-seed4", "b-sqrt5-1", "b0-real", "c0"])
    def test_labels_match_relabelling_every_link(self, target, monkeypatch):
        rep = _report(target)
        monkeypatch.setattr(topology, "_GridComponents", _ReferenceComponents)
        ref = _report(target)
        assert (rep.count, rep.lower_bound, rep.certified) == \
            (ref.count, ref.lower_bound, ref.certified)
        assert rep.labels.dtype == ref.labels.dtype
        assert np.array_equal(rep.labels, ref.labels)

    @pytest.mark.parametrize("shape", [(7, 12), (9, 5, 6)])
    def test_pair_indices_match_arange(self, shape):
        gen = np.random.default_rng(17)
        flat = np.arange(np.prod(shape)).reshape(shape)
        for off in _half_offsets(len(shape), LINK_RADIUS):
            sl0, sl1 = _offset_slices(shape, off)
            pair = gen.random(flat[sl0].shape) < 0.4
            mask = np.zeros(shape, bool)
            mask[sl0] = pair
            i0, i1 = _pair_indices(mask, off)
            assert np.array_equal(i0, flat[sl0][pair]), off
            assert np.array_equal(i1, flat[sl1][pair]), off


class TestTraceBoundary:
    def test_p_circle(self):
        spec = SliceSpec("b", 1.5, resolution=200)
        curves = trace_boundary(spec, "P")
        assert len(curves) == 1
        curve = curves[0]
        assert curve.closed
        radii = np.sqrt((curve.polyline ** 2).sum(axis=1))
        target = math.sqrt(10 - 2 * 1.5 ** 2)
        cell_diag = math.hypot(7.2 / 200, 7.2 / 200)
        assert np.abs(radii - target).max() < 2 * cell_diag

    def test_q_lines_at_b0(self):
        spec = SliceSpec("b", 0.0, resolution=128)
        curves = trace_boundary(spec, "Q")
        pts = np.concatenate([c.polyline for c in curves])
        # the zero set is the union of a = +-3 and c = +-1
        dist = np.minimum(np.abs(np.abs(pts[:, 0]) - 3), np.abs(np.abs(pts[:, 1]) - 1))
        assert dist.max() < 1e-6

    def test_w_contour_at_b1_contains_antidiagonal(self):
        spec = SliceSpec("b", 1.0, resolution=128)
        curves = trace_boundary(spec, "W")
        pts = np.concatenate([c.polyline for c in curves])
        # the a + c = 0 line is part of the zero set; look for vertices on it
        on_diag = np.abs(pts[:, 0] + pts[:, 1]) < 1e-6
        assert on_diag.sum() > 50

    def test_vertices_lie_on_zero_set(self):
        spec = SliceSpec("b", 0.3, resolution=100)
        for factor in ("W", "Q", "P"):
            for curve in trace_boundary(spec, factor):
                for u, v in curve.polyline[:: max(1, len(curve.polyline) // 20)]:
                    p = CouplingPoint(u, 0.3, v)
                    val = {"W": eval_w, "Q": eval_q, "P": eval_p}[factor](u, 0.3, v)
                    assert abs(val) < 1e-6 * (1 + p.norm() ** 4)

    def test_clip_removes_far_segments(self):
        spec = SliceSpec("b", 0.0, resolution=128)
        full = trace_boundary(spec, "W")
        clipped = trace_boundary(spec, "W", clip=True)
        n_full = sum(len(c.polyline) for c in full)
        n_clip = sum(len(c.polyline) for c in clipped)
        assert n_clip <= n_full


# ---------------------------------------------------------------------------
# the per-dimension sampling, lifting and stats that the one N-D grid path
# replaced, kept as the reference it reproduces
# ---------------------------------------------------------------------------

def _ref_membership(p, eta=0.0, mode=Mode.STRICT_SIMPLE):
    p = CouplingPoint(*map(float, p))
    W, Q, P = eval_w(p.a, p.b, p.c), eval_q(p.a, p.b, p.c), eval_p(p.a, p.b, p.c)
    guard = topology._boundary_guard(p.norm() ** 4)
    strict = (W > eta + guard) and (Q > eta + guard) and (P > eta + guard)
    if strict or mode is Mode.STRICT_SIMPLE:
        return strict
    if (Q > eta + guard) and (P > eta + guard) and (W <= eta + guard) and (W >= -eta - guard):
        return bool(oracle.real_spectrum_batch(np.array([tuple(p)]))[0])
    return False


def _ref_sample_slice(spec):
    u = spec.u_centers()
    v = spec.v_centers()
    vals = {spec.fixed_axis: spec.fixed_value,
            spec.u_axis: u[:, None], spec.v_axis: v[None, :]}
    a, b, c = vals["a"], vals["b"], vals["c"]
    shape = (spec.resolution, spec.resolution)
    Wg = np.broadcast_to(eval_w(a, b, c), shape).copy()
    Qg = np.broadcast_to(eval_q(a, b, c), shape).copy()
    Pg = np.broadcast_to(eval_p(a, b, c), shape).copy()

    def points_fn(flat_idx):
        ii, jj = np.unravel_index(flat_idx, shape)
        pts = {spec.u_axis: u[ii], spec.v_axis: v[jj],
               spec.fixed_axis: np.full(len(flat_idx), spec.fixed_value)}
        return np.stack([pts["a"], pts["b"], pts["c"]], axis=-1)

    n4g = np.broadcast_to((np.square(a) + np.square(b) + np.square(c)) ** 2, shape)
    member = topology._membership_grid(Wg, Qg, Pg, n4g, spec.eta, spec.mode, points_fn)
    return topology.SliceGrid(spec=spec, u=u, v=v, W=Wg, Q=Qg, P=Pg, membership=member)


def _ref_components2d(grid):
    spec = grid.spec
    shape = grid.membership.shape

    def lift(flat_idx):
        ii, jj = np.unravel_index(flat_idx, shape)
        pts = {spec.u_axis: grid.u[ii], spec.v_axis: grid.v[jj],
               spec.fixed_axis: np.full(len(np.atleast_1d(flat_idx)), spec.fixed_value)}
        return np.stack([pts["a"], pts["b"], pts["c"]], axis=-1)

    gc = topology._GridComponents(grid.membership, lift, spec.eta, spec.mode)
    n, labels = gc.run()
    lower, certified = gc.bound(n)
    if labels is None:
        return topology.ComponentReport(count=0, labels=-np.ones(shape, np.int64),
                                        lower_bound=lower, certified=certified)
    labels = _canonical_labels(labels)
    cell = (grid.u[1] - grid.u[0]) * (grid.v[1] - grid.v[0])
    stats = []
    for k in range(n):
        ii, jj = np.nonzero(labels == k)
        bbox = ((float(grid.u[ii.min()]), float(grid.u[ii.max()])),
                (float(grid.v[jj.min()]), float(grid.v[jj.max()])))
        stats.append(topology.ComponentStats(id=k, samples=int(len(ii)), bbox=bbox,
                                             area=float(len(ii) * cell)))
    return topology.ComponentReport(count=n, labels=labels, components=stats,
                                    lower_bound=lower, certified=certified)


def _ref_components3d(box):
    """(report, (W, Q, P, membership)); an empty box reports labels None."""
    xs = [grid_centers(box.a_range, box.resolution),
          grid_centers(box.b_range, box.resolution),
          grid_centers(box.c_range, box.resolution)]
    A = xs[0][:, None, None]
    B = xs[1][None, :, None]
    C = xs[2][None, None, :]
    shape = (box.resolution,) * 3
    Wg = np.broadcast_to(eval_w(A, B, C), shape)
    Qg = np.broadcast_to(eval_q(A, B, C), shape)
    Pg = np.broadcast_to(eval_p(A, B, C), shape)

    def points_fn(flat_idx):
        ii, jj, kk = np.unravel_index(flat_idx, shape)
        return np.stack([xs[0][ii], xs[1][jj], xs[2][kk]], axis=-1)

    n4g = np.broadcast_to((np.square(A) + np.square(B) + np.square(C)) ** 2, shape)
    member = topology._membership_grid(Wg, Qg, Pg, n4g, box.eta, box.mode, points_fn,
                                       factors=box.factors)
    gc = topology._GridComponents(member, points_fn, box.eta, box.mode, factors=box.factors)
    n, labels = gc.run()
    lower, certified = gc.bound(n)
    if labels is None:
        return topology.ComponentReport(count=0, labels=None, lower_bound=lower,
                                        certified=certified), (Wg, Qg, Pg, member)
    labels = _canonical_labels(labels)
    hs = [(r[1] - r[0]) / box.resolution for r in (box.a_range, box.b_range, box.c_range)]
    cell = hs[0] * hs[1] * hs[2]
    stats = []
    for k in range(n):
        ii, jj, kk = np.nonzero(labels == k)
        bbox = ((float(xs[0][ii.min()]), float(xs[0][ii.max()])),
                (float(xs[1][jj.min()]), float(xs[1][jj.max()])),
                (float(xs[2][kk.min()]), float(xs[2][kk.max()])))
        stats.append(topology.ComponentStats(id=k, samples=int(len(ii)), bbox=bbox,
                                             area=float(len(ii) * cell)))
    return topology.ComponentReport(count=n, labels=labels, components=stats,
                                    lower_bound=lower, certified=certified), (Wg, Qg, Pg, member)


def _ref_half_offsets(nd, radius):
    out = []
    for off in itertools.product(*(range(-radius, radius + 1),) * nd):
        if all(o == 0 for o in off):
            continue
        nz = next(o for o in off if o != 0)
        if nz < 0:
            continue
        out.append(off)
    return out


def _assert_same_report(rep, ref, area_rtol=0.0):
    assert (rep.count, rep.lower_bound, rep.certified) == \
        (ref.count, ref.lower_bound, ref.certified)
    assert rep.labels.dtype == ref.labels.dtype
    assert np.array_equal(rep.labels, ref.labels)
    assert len(rep.components) == len(ref.components)
    for s, r in zip(rep.components, ref.components):
        assert (s.id, s.samples, s.bbox) == (r.id, r.samples, r.bbox)
        if area_rtol:
            assert abs(s.area - r.area) <= area_rtol * abs(r.area)
        else:
            assert s.area == r.area


# the a and c window perfbench's workloads.windows(7, 300) gives the sweep,
# whose b = sqrt5 - 1 slice splits into three components there
SEED7_WINDOW_300 = dict(u_range=(-3.596997708801488, 3.603002291198512),
                        v_range=(-3.5933835434341153, 3.606616456565885))

REFERENCE_SLICES = [
    SliceSpec("b", 0.0, resolution=200),
    SliceSpec("b", 0.0, resolution=200, mode=Mode.REAL_ONLY),
    SliceSpec("c", 0.0, resolution=200),
    SliceSpec("a", 0.5, resolution=160),
    SliceSpec("b", 0.1, resolution=200, eta=1e-4),
    SliceSpec("b", 1.0, resolution=160, mode=Mode.REAL_ONLY),
    SliceSpec("b", math.sqrt(5) - 0.01, resolution=64),
    SliceSpec("b", math.sqrt(5) - 1, resolution=300, **SEED7_WINDOW_300),
]


class TestOneGridPath:
    @pytest.mark.parametrize("spec", REFERENCE_SLICES,
                             ids=["b0", "b0-real", "c0", "a0.5", "b0.1-eta", "b1-real",
                                  "b-sqrt5-0.01", "b-sqrt5-1-seed7"])
    def test_slice_matches_reference(self, spec):
        grid, ref_grid = sample_slice(spec), _ref_sample_slice(spec)
        for name in ("u", "v", "W", "Q", "P", "membership"):
            got, want = getattr(grid, name), getattr(ref_grid, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        _assert_same_report(components2d(grid), _ref_components2d(ref_grid))
        assert grid_oracle_mismatches(grid) == grid_oracle_mismatches(ref_grid)

    @pytest.mark.parametrize("box", [
        BoxSpec(resolution=48),
        BoxSpec(resolution=48, **SEED4_WINDOW_48),
        BoxSpec(resolution=32, mode=Mode.REAL_ONLY),
        BoxSpec(resolution=32, factors=("Q", "P")),
    ], ids=["box48", "box48-seed4", "box32-real", "box32-QP"])
    def test_box_matches_reference(self, box):
        ref, ref_samples = _ref_components3d(box)
        xs = [grid_centers(r, box.resolution) for r in (box.a_range, box.b_range, box.c_range)]
        samples = topology._sample(xs, box.eta, box.mode, box.factors)
        for name, got, want in zip("WQPM", samples, ref_samples):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        # the cell volume is now taken from the sample spacing, not the range
        _assert_same_report(components3d(box), ref, area_rtol=1e-12)

    def test_empty_box_has_labels(self):
        rep = components3d(BoxSpec(a_range=(5, 6), resolution=32))
        assert rep.count == 0 and rep.components == []
        assert rep.labels.shape == (32, 32, 32)
        assert rep.labels.dtype == np.int64 and (rep.labels == -1).all()
        assert _ref_components3d(BoxSpec(a_range=(5, 6), resolution=32))[0].count == 0

    def test_membership_is_a_one_sample_grid(self):
        gen = np.random.default_rng(3)
        pts = gen.uniform(-3.6, 3.6, (2000, 3)) * np.array([1.0, 2.3 / 3.6, 1.0])
        # next to the pinch (sqrt 8, 0, 0), where W touches zero
        r8 = math.sqrt(8)
        near = [(r8 + d, db, dc) for d in (-1e-9, 0.0, 1e-9, 1e-6)
                for db in (0.0, 1e-8) for dc in (0.0, -1e-9, 1e-7, 1e-3, -1e-3)]
        for p in [*map(tuple, pts), *near, (r8, 0, 0), (0, 0, 0)]:
            for mode in Mode:
                for eta in (0.0, 1e-6):
                    got = membership(p, eta, mode)
                    assert got is _ref_membership(p, eta, mode), (p, mode, eta)

    def test_lift_without_free_axis(self):
        xs = [np.array([0.5]), np.array([-1.0]), np.array([2.0])]
        assert topology._shape(xs) == (1,)
        assert np.array_equal(topology._lift(xs, np.array([0, 0])),
                              [[0.5, -1.0, 2.0], [0.5, -1.0, 2.0]])

    def test_point_matches_lift(self):
        grid = sample_slice(SliceSpec("a", 0.5, resolution=16))
        flat = np.ravel_multi_index((3, 11), grid.membership.shape)
        assert np.array_equal(grid.point(3, 11), topology._lift(grid.xs, np.array([flat]))[0])

    @pytest.mark.parametrize("nd", [2, 3])
    @pytest.mark.parametrize("radius", [LINK_RADIUS, topology.RESCUE_RADIUS])
    def test_half_offsets_unchanged(self, nd, radius):
        assert _half_offsets(nd, radius) == _ref_half_offsets(nd, radius)
