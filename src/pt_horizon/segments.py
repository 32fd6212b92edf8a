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

Every stage evaluates the one definition of each factor in `model`: floats
for the samples, `RationalPoly` lines for the exact restriction, and
`magnitude` (every subtraction made an addition) for the rounding margin.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product, zip_longest
from math import comb, prod

import numpy as np

from .model import eval_p, eval_q, eval_w, w_b0_square_root_term

# The one table of the factors' forms; `topology._FACTOR_EVAL` is this dict.
FACTOR_FORMS = {"W": eval_w, "Q": eval_q, "P": eval_p}
FACTOR_NAMES = tuple(FACTOR_FORMS)

NODES = tuple(Fraction(i, 4) for i in range(5))


def _form(name: str):
    """The model form of factor `name`, or ValueError for an unknown name."""
    try:
        return FACTOR_FORMS[name]
    except KeyError:
        raise ValueError(f"unknown factor {name!r}") from None


# ---------------------------------------------------------------------------
# number types the model's forms evaluate on, besides floats
# ---------------------------------------------------------------------------

class RationalPoly(tuple):
    """A polynomial in t: its ascending `Fraction` coefficients, without zero
    leading terms (the zero polynomial is (0,)).

    `+ - * **` take polynomials and rationals, so a model form evaluated at
    three lines p0 + t (p1 - p0) is the form's exact restriction to them.
    """

    def __new__(cls, coeffs):
        c = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs] or [Fraction(0)]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return super().__new__(cls, c)

    @staticmethod
    def _of(x):
        return x if isinstance(x, RationalPoly) else RationalPoly((x,))

    def __bool__(self):
        return any(self)

    def __add__(self, other):
        pairs = zip_longest(self, RationalPoly._of(other), fillvalue=0)
        return RationalPoly(x + y for x, y in pairs)

    def __neg__(self):
        return RationalPoly(-x for x in self)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = RationalPoly._of(other)
        out = [Fraction(0)] * (len(self) + len(other) - 1)
        for (i, x), (j, y) in product(enumerate(self), enumerate(other)):
            if x and y:
                out[i + j] += x * y
        return RationalPoly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, k: int):
        return prod([self] * k, start=RationalPoly((1,)))

    def __call__(self, x):
        return reduce(lambda v, coef: v * x + coef, reversed(self), Fraction(0))

    def derivative(self):
        return RationalPoly(i * c for i, c in enumerate(self) if i)

    def __divmod__(self, q):
        """Quotient and remainder of the long division by q."""
        if not q:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self)
        quo = [Fraction(0)] * max(1, len(r) - len(q) + 1)
        while len(r) >= len(q) and any(r):
            shift = len(r) - len(q)
            quo[shift] = f = r[-1] / q[-1]
            for i, y in enumerate(q):
                r[shift + i] -= f * y
            r = list(RationalPoly(r))
        return RationalPoly(quo), RationalPoly(r)


class _Magnitude:
    """A value whose subtraction adds and whose constants count as |k|."""

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Magnitude(self.v + (other.v if isinstance(other, _Magnitude) else abs(other)))

    def __mul__(self, other):
        return _Magnitude(self.v * (other.v if isinstance(other, _Magnitude) else abs(other)))

    def __pow__(self, k: int):
        return _Magnitude(self.v ** k)

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__


def magnitude(form, *args):
    """`form` at the nonnegative `args` with every subtraction made an
    addition: it bounds |form| wherever each |argument| is at most args[i],
    and it is the size that rounding errors of the form's float evaluation
    are proportional to (Higham, ch. 3).  `args` are floats, arrays or
    polynomials in r.
    """
    return form(*map(_Magnitude, args)).v


# Descending coefficients in r of each form's magnitude at |a| = |b| = |c| = r,
# expanded once: W 64 + 96 r^2 + 20 r^4, Q 9 + 24 r + 28 r^2 + 16 r^3 + 4 r^4,
# P 10 + 4 r^2.
_MAGNITUDE = {form: np.array(magnitude(form, *[RationalPoly((0, 1))] * 3)[::-1], float)
              for form in FACTOR_FORMS.values()}


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


# samples at NODES -> ascending monomial coefficients
VINV = np.array(_exact_inverse([[t ** k for k in range(5)] for t in NODES]), float)

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
# |coordinate| and M = factor_magnitude(name, R): the model form with every
# subtraction made an addition, at |a| = |b| = |c| = R (`magnitude`):
#   * each evaluation point p0 + t (p1 - p0) is off by <= 5u R per coordinate
#     (three roundings); a degree <= 4 polynomial bounded termwise by M moves
#     by <= 4 M (5u R) / R = 20u M under that (Euler's identity);
#   * `factor_values` evaluates the same model form, at most 6 operations
#     deep: gamma_6 M ~ 6u M (Higham, ch. 3);
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


def factor_values(name: str, a, b, c):
    """The float value of factor `name`, by its one definition in `model`."""
    return _form(name)(a, b, c)


def factor_magnitude(name: str, r):
    """`factor_values` with every subtraction made an addition, at |a| = |b| =
    |c| = r: the polynomial `_MAGNITUDE` holds, by Horner's rule.

    Throughout the cube |a|, |b|, |c| <= r it bounds |factor|, every
    intermediate of its evaluation, and r * |gradient|_1 / 4 (Euler's
    identity, degree <= 4).
    """
    return np.polyval(_MAGNITUDE[_form(name)], r)


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
            s0 = w_b0_square_root_term(a0, c0)
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

def exact_restriction(name: str, p0, p1) -> RationalPoly:
    """Exact ascending rational coefficients of the factor along the segment:
    its model form evaluated at the lines p0 + t (p1 - p0)."""
    ends = [(Fraction(float(x0)), Fraction(float(x1))) for x0, x1 in zip(p0, p1)]
    return _form(name)(*(RationalPoly((x0, x1 - x0)) for x0, x1 in ends))


def _distinct_roots_in_open_01(h) -> int:
    """Distinct real roots of h in (0, 1); assumes h(0) != 0 != h(1)."""
    if len(h) == 1:
        return 0
    g, r = h, h.derivative()        # g: a greatest common divisor of h and h'
    while r:
        g, r = r, divmod(g, r)[1]
    if len(g) > 1:
        h, rem = divmod(h, g)
        assert not rem
    chain = [h, h.derivative()]         # the Sturm chain of the square-free h
    while len(chain[-1]) > 1:
        chain.append(-divmod(chain[-2], chain[-1])[1])

    def variations(x):
        signs = [v > 0 for v in (p(x) for p in chain) if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(Fraction(0)) - variations(Fraction(1))


def exact_positive_on_segment(name: str, p0, p1, eta: float) -> bool:
    """Exact: factor > eta at every t in [0, 1] along the segment."""
    h = exact_restriction(name, p0, p1) - Fraction(float(eta))
    return bool(h) and h(0) > 0 and h(1) > 0 and _distinct_roots_in_open_01(h) == 0


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
