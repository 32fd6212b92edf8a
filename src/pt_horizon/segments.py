"""Sign analysis of W, Q, P along straight segments of coupling space.

Each discriminant restricted to a line is a polynomial of degree <= 4 in the
line parameter t.  Connectivity decisions need the sign of its minimum over
[0, 1], which endpoint sampling cannot provide near pinch points where a
factor has a sign-non-changing double zero.  A decision takes up to three
stages, each run only on the segments the one before left open:

1. Bernstein certificate.  The five nodes of a batch of segments are built
   once (`restriction_nodes`, with the radius of the rounding margin,
   `segment_radius`) and shared by W, Q and P.  Each factor is evaluated
   once at them and the samples are mapped to the restriction's Bernstein
   coefficients on [0, 1] (`bernstein_minimum`).  The map is the exact
   rational 5x5 inverse, applied as elementwise sums over the mirrored
   samples g0 +- g4, g1 +- g3 (the nodes are symmetric about t = 1/2), so
   no BLAS call, and no BLAS thread, is involved.  The polynomial lies in
   the convex hull of its coefficients, so a smallest coefficient above eta
   plus a proven rounding margin (`certificate_margin`) accepts the
   segment.
2. Float minimum.  The same samples give the monomial coefficients (rational
   inverse Vandermonde), minimized through the derivative's real roots.
3. Exact replay.  Whenever the computed minimum lands inside a rounding-sized
   band around the threshold, the decision is replayed in exact rational
   arithmetic (floats are dyadic rationals, so the restriction coefficients
   are exactly representable) with a Sturm root count.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .model import eval_p, eval_q, eval_w

FACTOR_NAMES = ("W", "Q", "P")

NODES = tuple(Fraction(i, 4) for i in range(5))


def _exact_inverse(M):
    """Gauss-Jordan inverse of a square matrix of Fractions."""
    n = len(M)
    A = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [x / pv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def _as_float(M):
    return np.array([[float(x) for x in row] for row in M])


# samples at NODES -> ascending monomial coefficients
VINV = _as_float(_exact_inverse([[t ** k for k in range(5)] for t in NODES]))

# samples at NODES -> Bernstein coefficients of degree 4 on [0, 1]
_BERN_INV = _exact_inverse([[comb(4, k) * t ** k * (1 - t) ** (4 - k) for k in range(5)]
                            for t in NODES])
BERN_ROWSUM = float(max(sum(abs(x) for x in row) for row in _BERN_INV))


def _mirrored(even, odd):
    """Row of weights on (g0..g4) of even . (g0+g4, g1+g3, g2) + odd . (g0-g4, g1-g3)."""
    return [even[0] + odd[0], even[1] + odd[1], even[2], even[1] - odd[1], even[0] - odd[0]]


# The nodes are symmetric about t = 1/2, so row 3 of the inverse is row 1
# reversed and row 2 is a palindrome: b1 = C + D and b3 = C - D, with C even
# and D odd in the mirrored samples, and b2 is even.  b0 = g0 and b4 = g4.
_C_EXACT = [(x + y) / 2 for x, y in zip(_BERN_INV[1][:3], _BERN_INV[3][:3])]
_D_EXACT = [(x - y) / 2 for x, y in zip(_BERN_INV[1][:2], _BERN_INV[3][:2])]
_B2_EXACT = _BERN_INV[2][:3]
assert _BERN_INV == [[1, 0, 0, 0, 0], _mirrored(_C_EXACT, _D_EXACT),
                     _mirrored(_B2_EXACT, (0, 0)), _mirrored(_C_EXACT, [-x for x in _D_EXACT]),
                     [0, 0, 0, 0, 1]]
_C = tuple(float(x) for x in _C_EXACT)      # -2/3, 8/3, -3
_D = tuple(float(x) for x in _D_EXACT)      # -5/12, 4/3
_B2 = tuple(float(x) for x in _B2_EXACT)    # 13/18, -32/9, 20/3

# Columns per block of `bernstein_minimum`: its ten rows of 64 KiB (five of
# samples, five temporaries) fit in a 2 MiB L2 cache.  On a 2-core Xeon with
# that cache, 300k columns took a third of the time of whole-row passes.
_BLOCK = 8192

# Rounding margin of the certificate, derived for round-to-nearest doubles
# (unit roundoff u = 2^-53).  For one segment let R be its largest
# |coordinate| and M = factor_magnitude(name, R):
#   * each evaluation point p0 + t (p1 - p0) is off by <= 5u R per coordinate
#     (three roundings); a degree <= 4 polynomial bounded termwise by M moves
#     by <= 4 M (5u R) / R = 20u M under that (Euler's identity);
#   * `factor_values` is at most 6 operations deep: gamma_6 M ~ 6u M;
#   so every sample is within 27u M of the exact value (O(u^2) included);
#   * `bernstein_interior` weighs the samples by rows of B^-1, so sample
#     errors grow by at most its largest absolute row sum, the sum over paths
#     of |weight|: BERN_ROWSUM = 137/9 ~ 15.2, attained by b2 (b1 and b3
#     reach 79/6 ~ 13.2; b0 = g0 and b4 = g4 are copied);
#   * its own arithmetic: a sample reaches a coefficient through at most 5
#     roundings (mirrored sum, product, two sums inside C, then C + D), and
#     the non-dyadic weights (-2/3, 8/3, -5/12, 4/3, 13/18, -32/9, 20/3) are
#     stored to within u: gamma_6 ~ 6u times BERN_ROWSUM * max|sample| <=
#     BERN_ROWSUM * M.
# Total: 33u * BERN_ROWSUM * M.  The margin takes 40u * BERN_ROWSUM * (M + eta),
# whose excess covers rounding eta + margin and M themselves.
_CERT_UNITS = 40.0 * BERN_ROWSUM * 2.0 ** -53


_FACTOR_FORMS = {"W": eval_w, "Q": eval_q, "P": eval_p}


def factor_values(name: str, a, b, c):
    """The float value of factor `name`, by its one definition in `model`."""
    if name not in _FACTOR_FORMS:
        raise ValueError(f"unknown factor {name!r}")
    return _FACTOR_FORMS[name](a, b, c)


def factor_magnitude(name: str, r):
    """`factor_values` with every term made positive, at |a| = |b| = |c| = r.

    Throughout the cube |a|, |b|, |c| <= r it bounds |factor|, every
    intermediate of its evaluation, and r * |gradient|_1 / 4 (Euler's
    identity, degree <= 4).
    """
    r2 = r * r
    if name == "W":
        return (8 + 2 * r2) ** 2 + 4 * (16 + 4 * r2) * r2
    if name == "Q":
        return ((r + 3) * (r + 1) + r2) ** 2
    if name == "P":
        return 10 + 4 * r2
    raise ValueError(f"unknown factor {name!r}")


def segment_radius(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """Largest |coordinate| of each segment's endpoints: R in the margin's analysis."""
    m = np.maximum(np.abs(p0), np.abs(p1))
    return np.maximum(np.maximum(m[:, 0], m[:, 1]), m[:, 2])


def certificate_margin(name: str, r: np.ndarray, eta: float) -> np.ndarray:
    """Bound on |float - exact| Bernstein coefficients, plus eta's rounding.

    `r` is `segment_radius(p0, p1)`.
    """
    return _CERT_UNITS * (factor_magnitude(name, r) + eta)


def bernstein_interior(g: np.ndarray):
    """Bernstein coefficients (b1, b2, b3) on [0, 1] of the restrictions sampled
    at NODES, g of shape (5, n); b0 = g[0] and b4 = g[4].

    Plain elementwise sums over the mirrored samples, without BLAS, held in
    five arrays of length n.
    """
    g0, g1, g2, g3, g4 = g
    s = g0 + g4
    t = g1 + g3
    x = np.multiply(t, _B2[1])
    b2 = np.multiply(s, _B2[0])
    b2 += x
    b2 += np.multiply(g2, _B2[2], out=x)
    c = np.multiply(s, _C[0])
    c += np.multiply(t, _C[1], out=x)
    c += np.multiply(g2, _C[2], out=x)
    d = np.subtract(g0, g4, out=s)
    d *= _D[0]
    d += np.multiply(np.subtract(g1, g3, out=t), _D[1], out=t)
    b1 = np.add(c, d, out=x)
    c -= d
    return b1, b2, c


def bernstein_minimum(g: np.ndarray) -> np.ndarray:
    """Smallest Bernstein coefficient of each restriction sampled at NODES.

    Taken `_BLOCK` columns at a time, so that a block's samples and
    temporaries stay in cache across the two dozen elementwise passes.
    """
    m = np.empty(g.shape[1])
    for lo in range(0, len(m), _BLOCK):
        blk = g[:, lo:lo + _BLOCK]
        out = m[lo:lo + _BLOCK]
        b1, b2, b3 = bernstein_interior(blk)
        np.minimum(b1, b2, out=out)
        np.minimum(out, b3, out=out)
        np.minimum(out, blk[0], out=out)
        np.minimum(out, blk[4], out=out)
    return m


# ---------------------------------------------------------------------------
# vectorized real roots of cubics (Cardano / trigonometric branches)
# ---------------------------------------------------------------------------

def cubic_real_roots(d3, d2, d1, d0) -> np.ndarray:
    """Real roots of d3 x^3 + d2 x^2 + d1 x + d0, NaN-padded, shape (..., 3).

    Degenerate leading coefficients fall back to the quadratic/linear cases;
    roots are polished with two Newton steps.
    """
    d3, d2, d1, d0 = np.broadcast_arrays(*(np.asarray(x, float) for x in (d3, d2, d1, d0)))
    out = np.full(d3.shape + (3,), np.nan)
    scale = np.maximum.reduce([np.abs(d3), np.abs(d2), np.abs(d1), np.abs(d0)])
    thr = 1e-12 * scale + 1e-300

    is3 = np.abs(d3) > thr
    if is3.any():
        a3 = np.where(is3, d3, 1.0)
        p = d2 / a3
        q = d1 / a3
        r = d0 / a3
        A = q - p * p / 3.0
        B = 2 * p ** 3 / 27 - p * q / 3 + r
        off = -p / 3
        disc = (B / 2) ** 2 + (A / 3) ** 3
        one = disc > 0
        S = np.sqrt(np.where(one, disc, 0.0))
        y1 = np.cbrt(-B / 2 + S) + np.cbrt(-B / 2 - S)
        m = 2 * np.sqrt(np.maximum(-A / 3, 0.0))
        denom = A * m
        with np.errstate(all="ignore"):
            arg = np.where(np.abs(denom) > 1e-300, 3 * B / np.where(denom != 0, denom, 1.0), 0.0)
        arg = np.clip(arg, -1.0, 1.0)
        th = np.arccos(arg) / 3
        y3 = np.stack([m * np.cos(th),
                       m * np.cos(th - 2 * np.pi / 3),
                       m * np.cos(th - 4 * np.pi / 3)], axis=-1)
        nan = np.full_like(y1, np.nan)
        cand = np.where(one[..., None], np.stack([y1, nan, nan], -1), y3) + off[..., None]
        out = np.where(is3[..., None], cand, out)

    isq = (~is3) & (np.abs(d2) > thr)
    if isq.any():
        qd = d1 * d1 - 4 * d2 * d0
        ok = isq & (qd >= 0)
        sq = np.sqrt(np.where(qd >= 0, qd, 0.0))
        den = 2 * np.where(isq, d2, 1.0)
        out[..., 0] = np.where(ok, (-d1 + sq) / den, out[..., 0])
        out[..., 1] = np.where(ok, (-d1 - sq) / den, out[..., 1])

    isl = (~is3) & (~isq) & (np.abs(d1) > thr)
    if isl.any():
        out[..., 0] = np.where(isl, -d0 / np.where(isl, d1, 1.0), out[..., 0])

    for _ in range(2):
        f = ((d3[..., None] * out + d2[..., None]) * out + d1[..., None]) * out + d0[..., None]
        fp = (3 * d3[..., None] * out + 2 * d2[..., None]) * out + d1[..., None]
        with np.errstate(all="ignore"):
            step = f / fp
        step = np.where(np.isfinite(step), np.clip(step, -1.0, 1.0), 0.0)
        out = out - step
    return out


# ---------------------------------------------------------------------------
# float minimization of the restrictions
# ---------------------------------------------------------------------------

def restriction_nodes(p0: np.ndarray, p1: np.ndarray) -> list:
    """(a, b, c) columns of p0 + t (p1 - p0) at each of the NODES, for (n, 3) p0, p1.

    A coordinate whose step is zero on every segment of the batch is p0's
    column at every node: p0 + t * 0 differs from it at most in the sign of a
    zero, and every factor takes its coordinates only through squares and
    sums with nonzero constants or with one another before squaring.
    """
    d = p1 - p0
    cols = []
    for k in range(3):
        if d[:, k].any():
            cols.append([p0[:, k] + float(t) * d[:, k] for t in NODES])
        else:
            cols.append([p0[:, k]] * len(NODES))
    return list(zip(*cols))


def restriction_samples(name: str, nodes: list) -> np.ndarray:
    """Factor values (5, n) at `restriction_nodes(p0, p1)`."""
    g = np.empty((len(nodes), len(nodes[0][0])))
    for i, (a, b, c) in enumerate(nodes):
        g[i] = factor_values(name, a, b, c)
    return g


def segment_minimum(name: str, p0: np.ndarray, p1: np.ndarray, samples=None):
    """Minimum of the restriction over [0,1] for stacked segments.

    Returns (min, argmin t, coefficient scale, decided) where decided is
    +1/-1 when the sign question `min > eta for any eta >= 0` is settled
    structurally and 0 when it is left to the caller's tolerance band.
    `samples` is `restriction_samples(name, restriction_nodes(p0, p1))` when
    the caller has it.
    Segments lying in the b = 0 plane get a dedicated branch for W, which is
    there the square of a quadratic: a sign change of the quadratic means the
    minimum is exactly zero (a touch), settled as -1 without exact work.
    """
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    n = p0.shape[0]
    m = np.empty(n)
    arg = np.zeros(n)
    scale = np.empty(n)
    decided = np.zeros(n, np.int8)
    special = np.zeros(n, bool)

    if name == "W":
        special = (p0[:, 1] == 0.0) & (p1[:, 1] == 0.0)
        if special.any():
            q0, q1 = p0[special], p1[special]
            a0, c0 = q0[:, 0], q0[:, 2]
            da, dc = q1[:, 0] - a0, q1[:, 2] - c0
            s0 = 8 + c0 * c0 - a0 * a0
            s1 = 2 * (c0 * dc - a0 * da)
            s2 = dc * dc - da * da
            v0, v1 = s0, s0 + s1 + s2
            with np.errstate(all="ignore"):
                tv = -s1 / (2 * s2)
            inside = np.isfinite(tv) & (tv > 0) & (tv < 1)
            with np.errstate(all="ignore"):
                vt = np.where(inside, (s2 * tv + s1) * tv + s0, v0)
            lo = np.minimum(np.minimum(v0, v1), vt)
            hi = np.maximum(np.maximum(v0, v1), vt)
            sscale = np.abs(s0) + np.abs(s1) + np.abs(s2)
            crosses = (lo <= 0) & (hi >= 0)
            absmin = np.minimum(np.abs(lo), np.abs(hi))
            thin = (absmin <= 1e-12 * (1 + sscale)) & ~crosses
            m[special] = np.where(crosses, 0.0, absmin ** 2)
            dec = np.where(crosses, -1, 0).astype(np.int8)
            dec[thin] = 0
            decided[special] = dec
            scale[special] = sscale ** 2
            # argmin of W = s^2: a zero crossing of s when present, otherwise
            # the smallest-|s| candidate among endpoints and vertex
            cand_t = np.stack([np.zeros_like(v0), np.ones_like(v1),
                               np.where(inside, tv, 0.0)], axis=1)
            cand_v = np.stack([np.abs(v0), np.abs(v1),
                               np.where(inside, np.abs(vt), np.inf)], axis=1)
            t_cand = cand_t[np.arange(len(v0)), cand_v.argmin(axis=1)]
            roots = cubic_real_roots(np.zeros_like(s2), s2, s1, s0)
            root_in = np.isfinite(roots) & (roots >= 0.0) & (roots <= 1.0)
            has_root = root_in.any(axis=1)
            first_root = np.where(root_in, roots, np.inf).min(axis=1)
            arg[special] = np.where(crosses & has_root, first_root, t_cand)

    rest = ~special
    if rest.any():
        if samples is None:
            samples = restriction_samples(name, restriction_nodes(p0, p1))
        coeffs = np.tensordot(VINV, samples[:, rest], axes=(1, 0))
        k0, k1, k2, k3, k4 = coeffs
        roots = cubic_real_roots(4 * k4, 3 * k3, 2 * k2, k1)
        g0 = k0
        g1 = k0 + k1 + k2 + k3 + k4
        mm = np.minimum(g0, g1)
        tt = np.where(g0 <= g1, 0.0, 1.0)
        valid = np.isfinite(roots) & (roots > 0.0) & (roots < 1.0)
        r = np.where(valid, roots, 0.0)
        vals = (((k4[:, None] * r + k3[:, None]) * r + k2[:, None]) * r
                + k1[:, None]) * r + k0[:, None]
        vals = np.where(valid, vals, np.inf)
        best = vals.min(axis=1)
        which = vals.argmin(axis=1)
        take = best < mm
        mm = np.where(take, best, mm)
        tt = np.where(take, r[np.arange(len(which)), which], tt)
        m[rest] = mm
        arg[rest] = tt
        scale[rest] = np.abs(coeffs).sum(axis=0)
    return m, arg, scale, decided


# ---------------------------------------------------------------------------
# exact rational decision (fallback for the ambiguity band)
# ---------------------------------------------------------------------------

def _ptrim(p):
    p = tuple(p)
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _iszero(p):
    return len(p) == 1 and p[0] == 0


def _padd(p, q):
    n = max(len(p), len(q))
    return _ptrim(tuple((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                        for i in range(n)))


def _psub(p, q):
    return _padd(p, tuple(-x for x in q))


def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                if qj:
                    out[i + j] += pi * qj
    return _ptrim(out)


def _pscale(p, s):
    return _ptrim(tuple(s * x for x in p))


def _peval(p, x):
    v = Fraction(0)
    for coef in reversed(p):
        v = v * x + coef
    return v


def _pderiv(p):
    if len(p) == 1:
        return (Fraction(0),)
    return _ptrim(tuple(i * c for i, c in enumerate(p))[1:])


def _pdivmod(p, q):
    p = list(_ptrim(p))
    q = _ptrim(q)
    if _iszero(q):
        raise ZeroDivisionError("polynomial division by zero")
    dq = len(q) - 1
    quo = [Fraction(0)] * max(1, len(p) - dq)
    while len(p) - 1 >= dq and not (len(p) == 1 and p[0] == 0):
        shift = len(p) - 1 - dq
        f = Fraction(p[-1]) / q[-1]
        quo[shift] += f
        for i in range(len(q)):
            p[shift + i] -= f * q[i]
        p = list(_ptrim(p))
        if len(p) - 1 < dq or (len(p) == 1 and p[0] == 0):
            break
    return _ptrim(quo), _ptrim(p)


def _pgcd(p, q):
    p, q = _ptrim(p), _ptrim(q)
    while not _iszero(q):
        _, r = _pdivmod(p, q)
        p, q = q, r
    if not _iszero(p) and p[-1] != 1:
        p = _pscale(p, Fraction(1) / p[-1])
    return p


def exact_restriction(name: str, p0, p1):
    """Exact ascending rational coefficients of the factor along the segment."""
    a0, b0, c0 = (Fraction(float(x)) for x in p0)
    a1, b1, c1 = (Fraction(float(x)) for x in p1)
    A = _ptrim((a0, a1 - a0))
    B = _ptrim((b0, b1 - b0))
    C = _ptrim((c0, c1 - c0))
    one = (Fraction(1),)

    def const(k):
        return (Fraction(k),)

    A2, B2, C2 = _pmul(A, A), _pmul(B, B), _pmul(C, C)
    if name == "W":
        t1 = _padd(const(8), _psub(C2, A2))
        AC = _padd(A, C)
        t2 = _psub(const(16), _pmul(AC, AC))
        return _psub(_pmul(t1, t1), _pscale(_pmul(t2, B2), Fraction(4)))
    if name == "Q":
        u = _psub(_pmul(_padd(A, const(3)), _psub(C, one)), B2)
        v = _psub(_pmul(_psub(A, const(3)), _padd(C, one)), B2)
        return _pmul(u, v)
    if name == "P":
        return _psub(const(10), _padd(A2, _padd(_pscale(B2, Fraction(2)), C2)))
    raise ValueError(f"unknown factor {name!r}")


def _sign(x):
    return (x > 0) - (x < 0)


def _distinct_roots_in_open_01(h) -> int:
    """Distinct real roots of h in (0, 1); assumes h(0) != 0 != h(1)."""
    h = _ptrim(h)
    if len(h) == 1:
        return 0
    g = _pgcd(h, _pderiv(h))
    if len(g) > 1:
        h, rem = _pdivmod(h, g)
        assert _iszero(rem)
    chain = [h]
    d = _pderiv(h)
    if not _iszero(d):
        chain.append(d)
        while len(chain[-1]) > 1:
            _, r = _pdivmod(chain[-2], chain[-1])
            if _iszero(r):
                break
            chain.append(tuple(-x for x in r))

    def variations(x):
        signs = [s for s in (_sign(_peval(p, x)) for p in chain) if s != 0]
        return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])

    return variations(Fraction(0)) - variations(Fraction(1))


def exact_positive_on_segment(name: str, p0, p1, eta: float) -> bool:
    """Exact: factor > eta at every t in [0, 1] along the segment."""
    h = _psub(exact_restriction(name, p0, p1), (Fraction(float(eta)),))
    if _iszero(h):
        return False
    if _peval(h, Fraction(0)) <= 0 or _peval(h, Fraction(1)) <= 0:
        return False
    return _distinct_roots_in_open_01(h) == 0


# ---------------------------------------------------------------------------
# combined decision for stacked segments
# ---------------------------------------------------------------------------

def minimum_decision(name: str, p0: np.ndarray, p1: np.ndarray, eta: float, samples=None):
    """(ok, minimum, argmin) of `factor > eta throughout` from the float minimum.

    Decisions inside the rounding band around eta are replayed exactly.
    """
    m, arg, scale, decided = segment_minimum(name, p0, p1, samples)
    safety = 1e-12 * (1.0 + scale)
    ok = (decided == 0) & (m > eta + safety)
    fail = (decided == -1) | ((decided == 0) & (m < eta - safety))
    ok |= decided == 1
    ambiguous = ~ok & ~fail
    for i in np.nonzero(ambiguous)[0]:
        ok[i] = exact_positive_on_segment(name, tuple(p0[i]), tuple(p1[i]), eta)
    return ok, m, arg


def factor_positive_mask(name: str, p0: np.ndarray, p1: np.ndarray, eta: float,
                         nodes=None, r=None):
    """(ok, minimum, argmin) of `factor > eta throughout` for stacked segments.

    `nodes` and `r` are `restriction_nodes(p0, p1)` and `segment_radius(p0,
    p1)`; a caller testing several factors on one batch builds them once.
    Segments the Bernstein certificate accepts report the smallest Bernstein
    coefficient as `minimum` (a lower bound, not the minimum) and NaN as
    `argmin`; the others carry the float minimum and its minimizer, which
    callers read on rejected segments.
    """
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    if nodes is None:
        nodes = restriction_nodes(p0, p1)
    if r is None:
        r = segment_radius(p0, p1)
    g = restriction_samples(name, nodes)
    m = bernstein_minimum(g)
    ok = m > eta + certificate_margin(name, r, eta)
    arg = np.full(len(m), np.nan)
    rest = np.nonzero(~ok)[0]
    if len(rest):
        ok[rest], m[rest], arg[rest] = minimum_decision(name, p0[rest], p1[rest], eta,
                                                        g[:, rest])
    return ok, m, arg
