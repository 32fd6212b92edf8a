from fractions import Fraction
from math import comb

import numpy as np
import pytest

from pt_horizon import Mode, SliceSpec, model, sample_slice, segments, topology
from pt_horizon.segments import (NODES, VINV, bernstein_interior, bernstein_minimum,
                                 certificate_margin, cubic_real_roots,
                                 exact_positive_on_segment,
                                 exact_restriction, factor_magnitude, factor_positive_mask,
                                 factor_values, minimum_decision,
                                 restriction_nodes, restriction_samples,
                                 segment_minimum, segment_radius)
from pt_horizon.topology import _edges_ok

rng = np.random.default_rng(42)


def _samples(name, p0, p1):
    return restriction_samples(name, restriction_nodes(p0, p1))


class TestCubicRoots:
    @pytest.mark.parametrize("degenerate", ["none", "quadratic", "linear"])
    def test_against_numpy_roots(self, degenerate):
        n = 500
        d = rng.uniform(-5, 5, (n, 4))
        if degenerate == "quadratic":
            d[:, 0] = 0.0
        elif degenerate == "linear":
            d[:, 0] = 0.0
            d[:, 1] = 0.0
        mine = cubic_real_roots(d[:, 0], d[:, 1], d[:, 2], d[:, 3])
        for k in range(n):
            ref = np.roots(d[k][np.argmax(d[k] != 0):])
            ref = np.sort(ref.real[np.abs(ref.imag) < 1e-9])
            got = np.sort(mine[k][np.isfinite(mine[k])])
            assert len(got) == len(ref), (d[k], got, ref)
            if len(ref):
                assert np.allclose(got, ref, atol=1e-6 * (1 + np.abs(ref).max()))

    def test_triple_root(self):
        roots = cubic_real_roots(np.array([1.0]), np.array([-3.0]),
                                 np.array([3.0]), np.array([-1.0]))
        good = roots[0][np.isfinite(roots[0])]
        assert np.allclose(good, 1.0, atol=1e-4)


class TestRestriction:
    def test_coefficients_reproduce_values(self):
        p0 = rng.uniform(-3, 3, (200, 3))
        p1 = p0 + rng.uniform(-0.5, 0.5, (200, 3))
        for name in segments.FACTOR_NAMES:
            coeffs = np.tensordot(VINV, _samples(name, p0, p1), axes=(1, 0))
            for t in (0.0, 0.3, 0.77, 1.0):
                pt = p0 + t * (p1 - p0)
                direct = factor_values(name, pt[:, 0], pt[:, 1], pt[:, 2])
                k0, k1, k2, k3, k4 = coeffs
                via = (((k4 * t + k3) * t + k2) * t + k1) * t + k0
                assert np.allclose(via, direct, rtol=1e-9, atol=1e-9)

    def test_exact_restriction_matches_float(self):
        p0 = rng.uniform(-2, 2, (20, 3))
        p1 = p0 + rng.uniform(-0.4, 0.4, (20, 3))
        for name in segments.FACTOR_NAMES:
            coeffs = np.tensordot(VINV, _samples(name, p0, p1), axes=(1, 0))
            for k in range(20):
                exact = exact_restriction(name, tuple(p0[k]), tuple(p1[k]))
                exact = [float(x) for x in exact] + [0.0] * (5 - len(exact))
                assert np.allclose(exact, coeffs[:, k], rtol=1e-9, atol=1e-9)


class TestSegmentMinimum:
    def test_matches_dense_sampling(self):
        p0 = rng.uniform(-3, 3, (300, 3))
        p1 = p0 + rng.uniform(-0.5, 0.5, (300, 3))
        ts = np.linspace(0, 1, 2001)
        for name in segments.FACTOR_NAMES:
            m, arg, scale, decided = segment_minimum(name, p0, p1)
            for k in range(0, 300, 7):
                pts = p0[k][None, :] + ts[:, None] * (p1[k] - p0[k])[None, :]
                dense = factor_values(name, pts[:, 0], pts[:, 1], pts[:, 2]).min()
                assert m[k] <= dense + 1e-9 * (1 + scale[k])
                assert m[k] >= dense - 1e-6 * (1 + scale[k])

    def test_b0_special_branch_touch(self):
        # crossing the a^2 = 8 + c^2 curve inside the b = 0 plane: min is 0
        p0 = np.array([[2.80, 0.0, 0.0]])
        p1 = np.array([[2.90, 0.0, 0.0]])
        m, arg, scale, decided = segment_minimum("W", p0, p1)
        assert decided[0] == -1
        assert m[0] == 0.0
        t = arg[0]
        a = 2.80 + t * 0.10
        assert a ** 2 == pytest.approx(8.0, abs=1e-9)


class TestExactDecision:
    def test_pinch_rejected(self):
        r8 = np.sqrt(8.0)
        assert not exact_positive_on_segment("W", (r8 - 0.01, 0, 0), (r8 + 0.01, 0, 0), 0.0)

    def test_safe_segment_accepted(self):
        assert exact_positive_on_segment("W", (0, 0, 0), (0.1, 0, 0), 0.0)

    def test_definite_crossing_rejected(self):
        assert not exact_positive_on_segment("W", (0, 0.5, 0), (0, 1.5, 0), 0.0)

    def test_matches_dense_sampling(self):
        bad = 0
        for _ in range(200):
            p0 = rng.uniform(-3, 3, 3)
            p1 = p0 + rng.uniform(-0.3, 0.3, 3)
            ts = np.linspace(0, 1, 4001)
            pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
            for name in segments.FACTOR_NAMES:
                dense = factor_values(name, pts[:, 0], pts[:, 1], pts[:, 2]).min()
                if abs(dense) < 1e-7:
                    continue
                got = exact_positive_on_segment(name, tuple(p0), tuple(p1), 0.0)
                bad += got != (dense > 0)
        assert bad == 0

    def test_eta_shift(self):
        # W at the origin ray stays above 60 for tiny steps, not above 70
        assert exact_positive_on_segment("W", (0, 0, 0), (0.01, 0, 0), 60.0)
        assert not exact_positive_on_segment("W", (0, 0, 0), (0.01, 0, 0), 70.0)


class TestAllPositive:
    def test_spec_segments(self):
        r8 = np.sqrt(8.0)
        p0 = np.array([[r8 - 0.01, 0, 0], [0, 0, 0], [2.85, 0, 0], [2.80, 0, 0]])
        p1 = np.array([[r8 + 0.01, 0, 0], [0.1, 0, 0], [2.95, 0, 0], [2.90, 0, 0]])
        ok = _edges_ok(p0, p1, 0.0, Mode.STRICT_SIMPLE)
        assert list(ok) == [False, True, True, False]


def _exact_bernstein(name, p0, p1):
    # monomial -> Bernstein on [0, 1]: b_k = sum_j C(k, j) / C(4, j) a_j
    a = list(exact_restriction(name, p0, p1)) + [Fraction(0)] * 5
    return [sum(Fraction(comb(k, j), comb(4, j)) * a[j] for j in range(k + 1))
            for k in range(5)]


def _random_segments(gen, n, scale):
    p0 = gen.uniform(-1, 1, (n, 3)) * scale
    p1 = p0 + gen.uniform(-1, 1, (n, 3)) * scale * 10.0 ** gen.uniform(-4, 0, (n, 1))
    return p0, p1


def _near_surface_segments(gen, name, n, eta):
    """Short segments around the level set `factor = eta`, at many scales."""
    sign = gen.choice([-1.0, 1.0], n)
    if name == "W":
        # b = 0 plane, where W = (8 + c^2 - a^2)^2 pinches along a^2 = 8 + c^2
        c = gen.uniform(-2, 2, n)
        a = np.sqrt(8 + c * c - gen.choice([-1.0, 1.0], n) * np.sqrt(eta)) * sign
        centre = np.stack([a, np.zeros(n), c], axis=1)
    elif name == "Q":
        # first factor (a + 3)(c - 1) - b^2 = eta / (second factor)
        a = gen.uniform(-2, 3, n)
        b = gen.uniform(-2, 2, n)
        c = np.ones(n)
        for _ in range(4):
            c = 1 + (b * b + eta / ((a - 3) * (c + 1) - b * b)) / (a + 3)
        centre = np.stack([a, b, c], axis=1)
    else:
        # a^2 + 2 b^2 + c^2 = 10 - eta
        d = gen.normal(size=(n, 3))
        d /= np.sqrt(d[:, 0] ** 2 + 2 * d[:, 1] ** 2 + d[:, 2] ** 2)[:, None]
        centre = np.sqrt(10 - eta) * d
    off = gen.normal(size=(n, 3)) * 10.0 ** gen.uniform(-14, -1, (n, 1))
    step = gen.normal(size=(n, 3)) * 10.0 ** gen.uniform(-12, -1, (n, 1))
    if name == "W":
        off[:, 1] = step[:, 1] = 0.0
    p0 = centre + off
    return p0, p0 + step


class TestBernsteinCertificate:
    @pytest.mark.parametrize("scale", [3.6, 100.0])
    def test_rounding_within_margin(self, scale):
        gen = np.random.default_rng(11)
        p0, p1 = _random_segments(gen, 300, scale)
        worst = 0.0
        for name in segments.FACTOR_NAMES:
            g = _samples(name, p0, p1)
            got = np.stack([g[0], *bernstein_interior(g), g[4]])
            margin = certificate_margin(name, segment_radius(p0, p1), 0.0)
            for k in range(len(p0)):
                exact = _exact_bernstein(name, tuple(p0[k]), tuple(p1[k]))
                err = max(abs(Fraction(float(g)) - e) for g, e in zip(got[:, k], exact))
                assert err < margin[k], (name, k, float(err), margin[k])
                worst = max(worst, float(err / Fraction(float(margin[k]))))
        assert worst > 0.0  # the comparison is not vacuous

    def test_bernstein_bounds_the_restriction(self):
        gen = np.random.default_rng(12)
        p0, p1 = _random_segments(gen, 200, 3.0)
        ts = np.linspace(0, 1, 101)
        for name in segments.FACTOR_NAMES:
            lower = bernstein_minimum(_samples(name, p0, p1))
            pts = p0[:, None, :] + ts[None, :, None] * (p1 - p0)[:, None, :]
            vals = factor_values(name, pts[..., 0], pts[..., 1], pts[..., 2]).min(axis=1)
            assert np.all(lower <= vals + 1e-9 * (1 + np.abs(vals)))

    @pytest.mark.parametrize("eta", [0.0, 1e-4])
    @pytest.mark.parametrize("name", segments.FACTOR_NAMES)
    def test_certified_implies_exact_positive(self, name, eta):
        gen = np.random.default_rng(13)
        p0, p1 = _near_surface_segments(gen, name, 400, eta)
        ok, m, arg = factor_positive_mask(name, p0, p1, eta)
        certified = ok & np.isnan(arg)
        # both outcomes occur, so the sample straddles the level set
        assert 40 <= certified.sum() <= 360
        for k in np.nonzero(certified)[0]:
            assert m[k] > eta
            assert exact_positive_on_segment(name, tuple(p0[k]), tuple(p1[k]), eta)

    def test_agrees_with_minimum_path_on_random_segments(self):
        gen = np.random.default_rng(14)
        n = 12000
        lo = np.array([-3.6, -2.3, -3.6])
        p0 = gen.uniform(lo, -lo, (n, 3))
        p0[: n // 4, 1] = 0.0       # the b = 0 plane takes W's special branch
        d = gen.normal(size=(n, 3)) * 10.0 ** gen.uniform(-3, -0.5, (n, 1))
        d[: n // 4, 1] = 0.0
        p1 = p0 + d
        self._assert_agree(p0, p1)

    def test_agrees_with_minimum_path_on_slice_axis_edges(self):
        self._assert_agree(*_slice_axis_edges())

    @staticmethod
    def _assert_agree(p0, p1):
        for name in segments.FACTOR_NAMES:
            ok, m, arg = factor_positive_mask(name, p0, p1, 0.0)
            ok_ref, m_ref, arg_ref = minimum_decision(name, p0, p1, 0.0)
            assert np.array_equal(ok, ok_ref), name
            # rejected segments carry the minimum and minimizer callers read
            assert np.array_equal(m[~ok], m_ref[~ok])
            assert np.array_equal(arg[~ok], arg_ref[~ok])


def _axis_edges(spec, members_only=False):
    """(p0, p1) of the axis edges of a slice grid, u steps first."""
    grid = sample_slice(spec)
    U, V = np.meshgrid(grid.u, grid.v, indexing="ij")
    coords = {spec.u_axis: U, spec.v_axis: V,
              spec.fixed_axis: np.full(U.shape, spec.fixed_value)}
    pts = np.stack([coords[axis] for axis in "abc"], axis=-1)
    p0 = np.concatenate([pts[:-1].reshape(-1, 3), pts[:, :-1].reshape(-1, 3)])
    p1 = np.concatenate([pts[1:].reshape(-1, 3), pts[:, 1:].reshape(-1, 3)])
    if members_only:
        mem = grid.membership
        keep = np.concatenate([(mem[:-1] & mem[1:]).ravel(), (mem[:, :-1] & mem[:, 1:]).ravel()])
        p0, p1 = p0[keep], p1[keep]
    return p0, p1


def _slice_axis_edges():
    """The 319,200 axis edges of the b = 0.1 slice at res 400, u steps first."""
    return _axis_edges(SliceSpec("b", 0.1, resolution=400))


# References: the per-factor node loop and the radius reduce that
# `restriction_nodes` and `segment_radius` replace, the BLAS product that
# `bernstein_minimum` replaces, and the decision built on them.

_BERN_INV = np.array([[float(x) for x in row] for row in segments._BERN_INV])


def _blas_bernstein_minimum(g):
    return np.tensordot(_BERN_INV, g, axes=(1, 0)).min(axis=0)


def _reference_samples(name, p0, p1):
    d = p1 - p0
    g = np.empty((5,) + p0.shape[:-1])
    for i, t in enumerate(segments.NODES):
        pt = p0 + float(t) * d
        g[i] = factor_values(name, pt[..., 0], pt[..., 1], pt[..., 2])
    return g


def _reference_margin(name, p0, p1, eta):
    r = np.maximum(np.abs(p0), np.abs(p1)).max(axis=-1)
    return segments._CERT_UNITS * (segments.factor_magnitude(name, r) + eta)


def _reference_mask(name, p0, p1, eta, certificate=bernstein_minimum):
    g = _reference_samples(name, p0, p1)
    m = certificate(g)
    ok = m > eta + _reference_margin(name, p0, p1, eta)
    arg = np.full(len(m), np.nan)
    rest = np.nonzero(~ok)[0]
    if len(rest):
        ok[rest], m[rest], arg[rest] = minimum_decision(name, p0[rest], p1[rest], eta,
                                                        g[:, rest])
    return ok, m, arg


def _assert_same_bits(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    if got.dtype == np.float64:
        got, ref = got.view(np.uint64), ref.view(np.uint64)   # NaN and -0.0 bits too
    assert np.array_equal(got, ref)


def _assert_bit_identical(p0, p1, eta=0.0):
    """Samples, margins and (ok, m, arg) equal the references bit for bit."""
    nodes = restriction_nodes(p0, p1)
    r = segment_radius(p0, p1)
    for k in range(3):
        if not (p1[:, k] - p0[:, k]).any():     # passed through, not copied
            assert all(node[k] is nodes[0][k] for node in nodes)
            assert np.shares_memory(nodes[0][k], p0)
    for name in segments.FACTOR_NAMES:
        _assert_same_bits(restriction_samples(name, nodes), _reference_samples(name, p0, p1))
        _assert_same_bits(certificate_margin(name, r, eta),
                          _reference_margin(name, p0, p1, eta))
        got = factor_positive_mask(name, p0, p1, eta, nodes, r)
        for x, y in zip(got, _reference_mask(name, p0, p1, eta)):
            _assert_same_bits(x, y)


class TestSharedNodes:
    def test_slice_axis_edges(self):
        p0, p1 = _slice_axis_edges()
        half = len(p0) // 2
        _assert_bit_identical(p0, p1)
        # one batch per axis, as topology sends them: a and b or b and c fixed
        _assert_bit_identical(p0[:half], p1[:half])
        _assert_bit_identical(p0[half:], p1[half:])

    @pytest.mark.parametrize("eta", [0.0, 1e-4])
    def test_random_segments(self, eta):
        gen = np.random.default_rng(15)
        # independent endpoints, where p0 + (p1 - p0) is not always p1
        lo = np.array([-3.6, -2.3, -3.6])
        _assert_bit_identical(gen.uniform(lo, -lo, (3000, 3)),
                              gen.uniform(lo, -lo, (3000, 3)), eta)
        h = np.array([7.2, 4.6, 7.2]) / 96
        n = 6000
        p0 = gen.uniform(lo, -lo, (n, 3))
        p0[: n // 3, 1] = 0.0       # the b = 0 plane takes W's special branch
        # mixed offsets of up to two grid steps per axis, zero on some rows
        off = gen.integers(-2, 3, (n, 3))
        off[: n // 3, 1] = 0
        _assert_bit_identical(p0, p0 + off * h, eta)
        # batches of one offset each, as the axis and radius-2 passes send
        for one in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -2, 0), (2, 1, -1)]:
            _assert_bit_identical(p0, p0 + np.array(one) * h, eta)

    def test_signed_zeros(self):
        gen = np.random.default_rng(16)
        n = 4000
        zeros = np.array([0.0, -0.0])
        r8 = np.sqrt(8.0)
        # a across the b = 0 pinch a^2 = 8 + c^2, b and c made of signed zeros
        p0 = np.stack([gen.uniform(r8 - 0.05, r8 + 0.05, n),
                       gen.choice(zeros, n), gen.choice(zeros, n)], axis=1)
        p0[: n // 4, 0] = gen.choice(zeros, n // 4)
        p1 = p0.copy()
        p1[:, 1] = gen.choice(zeros, n)     # +-0.0 steps, some of them -0.0
        p1[:, 2] = gen.choice(zeros, n)
        assert np.signbit(p1[:, 1] - p0[:, 1]).any()
        _assert_bit_identical(p0, p1)       # every step zero
        p1[:, 0] += gen.uniform(-0.05, 0.05, n)
        _assert_bit_identical(p0, p1)       # a moves, b and c are fixed
        p1[: n // 2, 2] = gen.uniform(-0.5, 0.5, n // 2)
        _assert_bit_identical(p0, p1)       # c moves on half of the rows


def _assert_same_decisions(p0, p1, eta=0.0):
    """The certificate accepts the same segments as the BLAS product it
    replaces, and every decision, minimum and minimizer callers read is equal.

    Returns the number of (segment, factor) pairs the certificate rejects.
    """
    rejected = 0
    for name in segments.FACTOR_NAMES:
        ok, m, arg = factor_positive_mask(name, p0, p1, eta)
        ok_ref, m_ref, arg_ref = _reference_mask(name, p0, p1, eta, _blas_bernstein_minimum)
        assert np.array_equal(ok, ok_ref), name
        certified = ok & np.isnan(arg)
        assert np.array_equal(certified, ok_ref & np.isnan(arg_ref)), name
        rest = ~certified
        _assert_same_bits(m[rest], m_ref[rest])
        _assert_same_bits(arg[rest], arg_ref[rest])
        rejected += rest.sum()
        assert certified.any()
    return rejected


class TestBlasFreeCertificate:
    def test_same_decisions_on_slice_axis_edges(self):
        assert _assert_same_decisions(*_slice_axis_edges()) > 0

    @pytest.mark.parametrize("axis, mode, rejects", [("b", Mode.STRICT_SIMPLE, True),
                                                     ("b", Mode.REAL_ONLY, True),
                                                     ("c", Mode.STRICT_SIMPLE, False)])
    def test_same_decisions_on_member_axis_edges(self, monkeypatch, axis, mode, rejects):
        p0, p1 = _axis_edges(SliceSpec(axis, 0.0, resolution=800, mode=mode),
                             members_only=True)
        assert (_assert_same_decisions(p0, p1) > 0) == rejects
        # the links, with REAL_ONLY's oracle admissions of rejected W segments
        links = _edges_ok(p0, p1, 0.0, mode)
        monkeypatch.setattr(segments, "bernstein_minimum", _blas_bernstein_minimum)
        assert np.array_equal(links, _edges_ok(p0, p1, 0.0, mode))

    def test_end_coefficients_are_the_end_samples(self):
        gen = np.random.default_rng(17)
        n = 20000       # more than two blocks of `bernstein_minimum`
        ends = gen.choice([-1.0, 1.0], (2, n)) * 10.0 ** gen.uniform(-320, 300, (2, n))
        # samples of the quartic with Bernstein coefficients (g0, big, big, big, g4)
        big = 4.0 * np.abs(ends).max(axis=0) + 1.0
        bern = np.stack([ends[0], big, big, big, ends[1]])
        fwd = np.array([[float(comb(4, k) * t ** k * (1 - t) ** (4 - k)) for k in range(5)]
                        for t in segments.NODES])
        g = np.stack([ends[0], *(fwd[1:4] @ bern), ends[1]])
        for b in bernstein_interior(g):
            assert np.all(b > np.abs(ends).max(axis=0))
        _assert_same_bits(bernstein_minimum(g), np.minimum(ends[0], ends[1]))

    def test_makes_no_blas_call(self, monkeypatch):
        p0, p1 = _slice_axis_edges()
        interior = np.ones(len(p0), bool)
        for name in segments.FACTOR_NAMES:
            ok, m, arg = factor_positive_mask(name, p0, p1, 0.0)
            interior &= ok & np.isnan(arg)
        p0, p1 = p0[interior], p1[interior]
        assert len(p0) > 50000

        def blas(*args, **kwargs):
            raise AssertionError("BLAS call on the certificate path")

        for fn in ("tensordot", "dot", "matmul", "einsum"):
            monkeypatch.setattr(np, fn, blas)
        for name in segments.FACTOR_NAMES:
            ok, m, arg = factor_positive_mask(name, p0, p1, 0.0)
            assert ok.all() and np.isnan(arg).all()


# References: the hand-expanded rational restriction and the closed-form
# magnitudes that the model's forms, evaluated on `RationalPoly` lines and on
# `magnitude`, replace.

def _ref_trim(p):
    p = tuple(p)
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _ref_add(p, q):
    n = max(len(p), len(q))
    return _ref_trim(tuple((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                           for i in range(n)))


def _ref_sub(p, q):
    return _ref_add(p, tuple(-x for x in q))


def _ref_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                if qj:
                    out[i + j] += pi * qj
    return _ref_trim(out)


def _ref_scale(p, s):
    return _ref_trim(tuple(s * x for x in p))


def _reference_restriction(name, p0, p1):
    a0, b0, c0 = (Fraction(float(x)) for x in p0)
    a1, b1, c1 = (Fraction(float(x)) for x in p1)
    A = _ref_trim((a0, a1 - a0))
    B = _ref_trim((b0, b1 - b0))
    C = _ref_trim((c0, c1 - c0))
    one = (Fraction(1),)

    def const(k):
        return (Fraction(k),)

    A2, B2, C2 = _ref_mul(A, A), _ref_mul(B, B), _ref_mul(C, C)
    if name == "W":
        t1 = _ref_add(const(8), _ref_sub(C2, A2))
        AC = _ref_add(A, C)
        t2 = _ref_sub(const(16), _ref_mul(AC, AC))
        return _ref_sub(_ref_mul(t1, t1), _ref_scale(_ref_mul(t2, B2), Fraction(4)))
    if name == "Q":
        u = _ref_sub(_ref_mul(_ref_add(A, const(3)), _ref_sub(C, one)), B2)
        v = _ref_sub(_ref_mul(_ref_sub(A, const(3)), _ref_add(C, one)), B2)
        return _ref_mul(u, v)
    return _ref_sub(const(10), _ref_add(A2, _ref_add(_ref_scale(B2, Fraction(2)), C2)))


def _reference_magnitude(name, r):
    r2 = r * r
    if name == "W":
        return (8 + 2 * r2) ** 2 + 4 * (16 + 4 * r2) * r2
    if name == "Q":
        return ((r + 3) * (r + 1) + r2) ** 2
    return 10 + 4 * r2


_MODEL_FORMS = {"W": model.eval_w, "Q": model.eval_q, "P": model.eval_p}


class TestOneDefinition:
    @pytest.mark.parametrize("name", segments.FACTOR_NAMES)
    def test_exact_restriction_is_the_model_form(self, name):
        gen = np.random.default_rng(18)
        n = 3000
        lo = np.array([-3.6, -2.3, -3.6])
        p0 = gen.uniform(lo, -lo, (n, 3))
        d = gen.normal(size=(n, 3)) * 10.0 ** gen.uniform(-6, 0.5, (n, 1))
        d[: n // 3, 1] = 0.0            # zero b-steps
        p0[n // 3: 2 * n // 3, 1] = 0.0  # segments in the b = 0 plane
        d[n // 3: 2 * n // 3, 1] = 0.0
        d[-10:] = 0.0                   # points
        p1 = p0 + d
        for k in range(n):
            got = exact_restriction(name, tuple(p0[k]), tuple(p1[k]))
            assert isinstance(got, tuple)
            assert got == _reference_restriction(name, p0[k], p1[k])
            assert all(type(x) is Fraction for x in got)
            e0 = [Fraction(float(x)) for x in p0[k]]
            e1 = [Fraction(float(x)) for x in p1[k]]
            for t in NODES:
                value = sum(coef * t ** j for j, coef in enumerate(got))
                point = [x0 + t * (x1 - x0) for x0, x1 in zip(e0, e1)]
                assert value == _MODEL_FORMS[name](*point)

    @pytest.mark.parametrize("name", segments.FACTOR_NAMES)
    def test_magnitude_is_the_closed_form(self, name):
        gen = np.random.default_rng(19)
        r = gen.uniform(0.0, 100.0, 10 ** 6)
        got = factor_magnitude(name, r)
        ref = _reference_magnitude(name, r)
        assert np.all(np.abs(got - ref) <= 1e-15 * ref)
        # it bounds the factor throughout the cube, its corners included
        u = gen.uniform(-1.0, 1.0, (3, len(r)))
        u[:, : len(r) // 10] = np.sign(u[:, : len(r) // 10])
        a, b, c = u * r
        assert np.all(got >= np.abs(factor_values(name, a, b, c)))

    @pytest.mark.parametrize("edges", ["b=0.1 res 400", "b=0 strict", "b=0 real", "c=0 strict"])
    def test_closed_form_margin_gives_the_same_masks(self, monkeypatch, edges):
        if edges == "b=0.1 res 400":
            p0, p1 = _slice_axis_edges()
        else:
            axis, mode = edges[0], Mode(edges.split()[1])
            p0, p1 = _axis_edges(SliceSpec(axis, 0.0, resolution=800, mode=mode),
                                 members_only=True)
        masks = [factor_positive_mask(name, p0, p1, 0.0) for name in segments.FACTOR_NAMES]
        monkeypatch.setattr(segments, "factor_magnitude", _reference_magnitude)
        for name, got in zip(segments.FACTOR_NAMES, masks):
            ref = factor_positive_mask(name, p0, p1, 0.0)
            assert np.array_equal(got[0], ref[0]), name
            _assert_same_bits(got[1], ref[1])
            _assert_same_bits(got[2], ref[2])

    def test_one_table_and_one_unknown_name_error(self):
        assert topology._FACTOR_EVAL is segments.FACTOR_FORMS
        assert segments.FACTOR_NAMES == tuple(segments.FACTOR_FORMS)
        for call in (lambda: factor_values("X", 0.0, 0.0, 0.0),
                     lambda: factor_magnitude("X", 1.0),
                     lambda: exact_restriction("X", (0, 0, 0), (1, 1, 1))):
            with pytest.raises(ValueError, match="unknown factor 'X'"):
                call()
