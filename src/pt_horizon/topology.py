"""Sampling, membership, connected components, and boundary tracing.

Grids sample cell centers of the requested window.  A slice and the box
are one kind of grid, given by the sample coordinates `xs` of a, b and c; a
slice's fixed coupling is one sample, an axis the grid's shape drops.  Both
take one path: `_sample` (W, Q, P, membership), `_lift` (flat indices to
points) and `_report` (labels, stats); `membership` is a one-sample grid.

Component analysis never trusts endpoint membership alone: every candidate
link between two member samples is accepted only if all three discriminants
stay positive along the straight segment between them (see `segments`).
Candidate links are the axis-aligned grid edges, all offsets within a small
Chebyshev radius, and a wider 'rescue' search around small fragments; since
a positive straight segment is itself a path inside the domain, extra
candidates can only heal sampling artifacts, never merge genuinely distinct
components.  The phases run in that order, and each merges the components
the one before left.

Sign classes.  Let s = 8 + c^2 - a^2, so W = s^2 - 4 (16 - (a + c)^2) b^2.
No point with W > 0 and P > 0 has s = 0: there, with p = a + c, we get
a - c = 8/p and 2 p^2 P = -(p^2 - 4)(p^2 - 16) - 4 p^2 b^2, so P > 0 forces
p^2 < 16, and then W = -4 (16 - p^2) b^2 <= 0.  On s < 0, a^2 > 8, so a
keeps its sign as well.  Hence {s > 0}, {s < 0, a > 0} and {s < 0, a < 0}
are unions of components, and in strict mode with W and P among the factors
every member sample gets its class (0, 1, 2; all 0 otherwise):
  * rescue searches only from fragments whose class holds another
    component, and only towards samples of the same class; every skipped
    segment would cross s = 0 and fail, so labels are the same;
  * the number of occupied classes is a proven lower bound on the count,
    reported as `ComponentReport.lower_bound`; `certified` says whether the
    count meets it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from . import oracle, segments
from .errors import InvalidInputError
from .model import PointLike, as_point, eval_p, eval_q, eval_w, w_b0_square_root_term

AXES = ("a", "b", "c")
DEFAULT_RANGES = {"a": (-3.6, 3.6), "b": (-2.3, 2.3), "c": (-3.6, 3.6)}

LINK_RADIUS = 2           # Chebyshev radius of the dense candidate offsets
RESCUE_RADIUS = 12        # search radius around small fragments
RESCUE_MAX_SAMPLES = 4096  # fragments at most this large get the wide search
MAX_SAMPLES_3D = 10 ** 9


class Mode(Enum):
    STRICT_SIMPLE = "strict"
    REAL_ONLY = "real"


def free_axes(fixed_axis: str):
    return tuple(ax for ax in AXES if ax != fixed_axis)


def grid_centers(rng, resolution: int) -> np.ndarray:
    # midpoint + signed offset so symmetric ranges sample exactly symmetric
    # points (reflection tests compare grids entrywise)
    lo, hi = rng
    mid = (lo + hi) / 2.0
    t = (2 * np.arange(resolution) + 1 - resolution) / (2 * resolution)
    return mid + t * (hi - lo)


@dataclass(frozen=True)
class SliceSpec:
    """A 2-D section of coupling space at one fixed coupling."""

    fixed_axis: str
    fixed_value: float
    u_range: tuple = None
    v_range: tuple = None
    resolution: int = 800
    eta: float = 0.0
    mode: Mode = Mode.STRICT_SIMPLE

    def __post_init__(self):
        if self.fixed_axis not in AXES:
            raise InvalidInputError(f"fixed_axis must be one of {AXES}, got {self.fixed_axis!r}")
        if not np.isfinite(self.fixed_value):
            raise InvalidInputError("fixed_value must be finite")
        fu, fv = free_axes(self.fixed_axis)
        if self.u_range is None:
            object.__setattr__(self, "u_range", DEFAULT_RANGES[fu])
        if self.v_range is None:
            object.__setattr__(self, "v_range", DEFAULT_RANGES[fv])
        for rng in (self.u_range, self.v_range):
            if not (np.isfinite(rng[0]) and np.isfinite(rng[1]) and rng[0] < rng[1]):
                raise InvalidInputError(f"range must satisfy min < max, got {rng}")
        if not (16 <= self.resolution <= 20000):
            raise InvalidInputError(f"resolution must be in [16, 20000], got {self.resolution}")
        if self.eta < 0:
            raise InvalidInputError(f"eta must be >= 0, got {self.eta}")

    @property
    def u_axis(self) -> str:
        return free_axes(self.fixed_axis)[0]

    @property
    def v_axis(self) -> str:
        return free_axes(self.fixed_axis)[1]

    def u_centers(self) -> np.ndarray:
        return grid_centers(self.u_range, self.resolution)

    def v_centers(self) -> np.ndarray:
        return grid_centers(self.v_range, self.resolution)

    def abc(self, u, v) -> tuple:
        """(a, b, c) with u and v on the free axes and the fixed coupling on its own."""
        vals = {self.fixed_axis: self.fixed_value, self.u_axis: u, self.v_axis: v}
        return vals["a"], vals["b"], vals["c"]


@dataclass(frozen=True)
class BoxSpec:
    """A full 3-D box sampled at `resolution` cells per axis."""

    a_range: tuple = DEFAULT_RANGES["a"]
    b_range: tuple = DEFAULT_RANGES["b"]
    c_range: tuple = DEFAULT_RANGES["c"]
    resolution: int = 160
    eta: float = 0.0
    mode: Mode = Mode.STRICT_SIMPLE
    factors: tuple = ("W", "Q", "P")

    def __post_init__(self):
        for rng in (self.a_range, self.b_range, self.c_range):
            if not (np.isfinite(rng[0]) and np.isfinite(rng[1]) and rng[0] < rng[1]):
                raise InvalidInputError(f"range must satisfy min < max, got {rng}")
        if self.resolution < 32:
            raise InvalidInputError(f"3-D resolution must be >= 32, got {self.resolution}")
        if self.resolution ** 3 > MAX_SAMPLES_3D:
            raise InvalidInputError(f"refusing > {MAX_SAMPLES_3D:.0e} samples")
        if self.eta < 0:
            raise InvalidInputError(f"eta must be >= 0, got {self.eta}")
        bad = [f for f in self.factors if f not in segments.FACTOR_NAMES]
        if bad or not self.factors:
            raise InvalidInputError(f"factors must be a nonempty subset of W,Q,P, got {self.factors}")


def _slice_xs(spec: SliceSpec, u, v) -> list:
    """Sample coordinates of a, b and c on a slice; the fixed coupling is one sample."""
    return [np.atleast_1d(np.asarray(x, float)) for x in spec.abc(u, v)]


@dataclass
class SliceGrid:
    spec: SliceSpec
    u: np.ndarray
    v: np.ndarray
    W: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    membership: np.ndarray

    @property
    def xs(self) -> list:
        return _slice_xs(self.spec, self.u, self.v)

    def point(self, i: int, j: int) -> tuple:
        return self.spec.abc(self.u[i], self.v[j])


@dataclass
class ComponentStats:
    id: int
    samples: int
    bbox: tuple
    area: float


@dataclass
class ComponentReport:
    """Labels and per-component stats.

    `labels` has the grid's shape: component ids in row-major first-seen
    order on the members, -1 elsewhere (everywhere if there are none).
    `lower_bound` is the number of sign classes holding a member sample, a
    proven lower bound on the number of components; `certified` is
    `count == lower_bound`.  Both are None where the classes do not apply
    (RealOnly mode, or factors without both W and P).
    """

    count: int
    labels: np.ndarray
    components: list = field(default_factory=list)
    lower_bound: Optional[int] = None
    certified: Optional[bool] = None


@dataclass
class BoundaryCurve:
    factor: str
    polyline: np.ndarray  # (k, 2) points in (u, v) coordinates
    closed: bool


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _boundary_guard(norm4):
    # a factor within this band of zero counts as sitting on the boundary;
    # keeps float pinch points (exact zeros perturbed by rounding) outside
    return 1e-12 * (1.0 + norm4)


def membership(p: PointLike, eta: float = 0.0, mode: Mode = Mode.STRICT_SIMPLE) -> bool:
    """Pointwise domain membership under the chosen mode.

    StrictSimple requires W, Q, P > eta, with a rounding-sized guard band so
    points numerically on a boundary do not count as inside.  RealOnly
    additionally admits points that fail only the W test, with W >= -eta up
    to the same guard, whenever the eigenvalue oracle reports a real
    (possibly degenerate) spectrum there.  This is `_sample` on a grid of
    one sample.
    """
    if eta < 0:
        raise InvalidInputError(f"eta must be >= 0, got {eta}")
    xs = [np.array([x]) for x in as_point(p)]
    return bool(_sample(xs, eta, mode)[3][0])


def _membership_grid(Wg, Qg, Pg, n4g, eta, mode, points_fn, factors=("W", "Q", "P")):
    by_name = {"W": Wg, "Q": Qg, "P": Pg}
    guard = _boundary_guard(n4g)
    member = np.ones(Wg.shape, bool)
    for name in factors:
        member &= by_name[name] > eta + guard
    if mode is Mode.REAL_ONLY and "W" in factors:
        others = np.ones(Wg.shape, bool)
        for name in factors:
            if name != "W":
                others &= by_name[name] > eta + guard
        cand = others & ~(Wg > eta + guard) & (Wg >= -eta - guard)
        idx = np.nonzero(cand.ravel())[0]
        if len(idx):
            pts = points_fn(idx)
            member.ravel()[idx] = oracle.real_spectrum_batch(pts)
    return member


def _shape(xs) -> tuple:
    """Grid shape of the axes `xs`: one-sample axes are dropped, (1,) if all are."""
    return tuple(len(x) for x in xs if len(x) > 1) or (1,)


def _lift(xs, flat_idx) -> np.ndarray:
    """(n, 3) coupling points of flat sample indices into the grid of `xs`."""
    out = np.empty((len(flat_idx), 3))
    free = any(len(x) > 1 for x in xs)   # without a free axis, nothing to unravel
    multi = iter(np.unravel_index(flat_idx, _shape(xs)) if free else ())
    for k, x in enumerate(xs):
        out[:, k] = x[next(multi)] if len(x) > 1 else x[0]
    return out


def _sample(xs, eta, mode, factors=segments.FACTOR_NAMES):
    """(W, Q, P, membership) on the grid of `xs`, each of shape `_shape(xs)`."""
    shape = _shape(xs)
    A, B, C = np.ix_(*xs)
    Wg, Qg, Pg = (f(A, B, C).reshape(shape) for f in (eval_w, eval_q, eval_p))
    n4g = ((np.square(A) + np.square(B) + np.square(C)) ** 2).reshape(shape)
    member = _membership_grid(Wg, Qg, Pg, n4g, eta, mode, lambda idx: _lift(xs, idx), factors)
    return Wg, Qg, Pg, member


# ---------------------------------------------------------------------------
# segment connectivity
# ---------------------------------------------------------------------------

def segment_connected(p1: PointLike, p2: PointLike, eta: float = 0.0,
                      mode: Mode = Mode.STRICT_SIMPLE) -> bool:
    """True iff every discriminant stays above eta along the straight segment.

    Both endpoints are expected to satisfy membership.  In RealOnly mode a
    W minimum that merely touches zero is admitted when the oracle finds a
    real spectrum at the touch point.
    """
    if eta < 0:
        raise InvalidInputError(f"eta must be >= 0, got {eta}")
    q1 = np.array([tuple(as_point(p1))])
    q2 = np.array([tuple(as_point(p2))])
    return bool(_edges_ok(q1, q2, eta, mode)[0])


def _edges_ok(p0: np.ndarray, p1: np.ndarray, eta: float, mode: Mode,
              factors=segments.FACTOR_NAMES) -> np.ndarray:
    ok = np.ones(p0.shape[0], bool)
    nodes = segments.restriction_nodes(p0, p1)
    r = segments.segment_radius(p0, p1)
    for name in factors:
        good, m, arg = segments.factor_positive_mask(name, p0, p1, eta, nodes, r)
        if mode is Mode.REAL_ONLY and name == "W":
            relax = ~good & (m >= -eta - 1e-9)
            idx = np.nonzero(relax & ok)[0]
            if len(idx):
                pts = p0[idx] + arg[idx, None] * (p1[idx] - p0[idx])
                good[idx] |= oracle.real_spectrum_batch(pts)
        ok &= good
    return ok


# Rounding bound of the float s = 8 + c*c - a*a (`w_b0_square_root_term`),
# for round-to-nearest doubles (unit roundoff u = 2^-53): c*c passes through
# three roundings (its product and both sums), 8 and a*a through two, so
# |fl(s) - s| <= gamma_3 S with gamma_3 = 3u / (1 - 3u) (Higham, ch. 3) and
# S = 8 + c^2 + a^2, the same form with its subtraction made an addition
# (`segments.magnitude`).  The bound below takes 4u times the float S; that
# is at least (1 - gamma_3) times the exact one and 4u (1 - gamma_3) >
# gamma_3, so a float |s| above it has the exact sign.
_S_UNITS = 4.0 * 2.0 ** -53


def _sign_classes(pts: np.ndarray) -> np.ndarray:
    """Sign class per point (int8): 0 if s > 0, 1 if s < 0 < a, 2 if s, a < 0.

    s = 8 + c^2 - a^2 is taken exactly: float values inside the rounding
    bound are re-evaluated in rationals.  Only member samples of a strict
    grid with W and P among the factors are passed, where s = 0 cannot
    occur (module docstring), so an exact zero is an internal error.
    """
    a, c = pts[:, 0], pts[:, 2]
    s = w_b0_square_root_term(a, c)
    neg = s < 0
    bound = _S_UNITS * segments.magnitude(w_b0_square_root_term, np.abs(a), np.abs(c))
    for i in np.nonzero(np.abs(s) <= bound)[0]:
        exact = w_b0_square_root_term(Fraction(float(a[i])), Fraction(float(c[i])))
        if exact == 0:
            raise RuntimeError(f"member sample {tuple(pts[i])} lies on s = 0")
        neg[i] = exact < 0
    return np.where(neg, np.where(a > 0, 1, 2), 0).astype(np.int8)


# ---------------------------------------------------------------------------
# connected components over sampled grids
# ---------------------------------------------------------------------------

def _full_offsets(nd, radius):
    return [off for off in product(*(range(-radius, radius + 1),) * nd)
            if any(o != 0 for o in off)]


def _half_offsets(nd, radius):
    """The offsets of `_full_offsets` whose first nonzero entry is positive."""
    return [off for off in _full_offsets(nd, radius) if next(o for o in off if o) > 0]


def _pair_indices(pair, off):
    """Flat indices (i0, i1) of the pairs (x, x + off) that `pair` marks at x.

    i0 is in row-major order, as `flat[sl0][pair[sl0]]` with
    `flat = np.arange(pair.size).reshape(pair.shape)`.
    """
    i0 = np.flatnonzero(pair)
    stride = 1
    step = 0
    for size, o in zip(reversed(pair.shape), reversed(off)):
        step += o * stride
        stride *= size
    return i0, i0 + step


def _offset_slices(shape, off):
    sl0, sl1 = [], []
    for k, o in enumerate(off):
        if o >= 0:
            sl0.append(slice(None, shape[k] - o) if o else slice(None))
            sl1.append(slice(o, None) if o else slice(None))
        else:
            sl0.append(slice(-o, None))
            sl1.append(slice(None, shape[k] + o))
    return tuple(sl0), tuple(sl1)


class _GridComponents:
    """Deterministic component labelling of a sampled membership grid."""

    def __init__(self, member, lift, eta, mode, factors=segments.FACTOR_NAMES):
        self.member = member
        self.lift = lift          # flat indices -> (n, 3) coupling points
        self.eta = eta
        self.mode = mode
        self.factors = tuple(factors)
        self.shape = member.shape
        self.nd = member.ndim
        self.n_mem = int(member.sum())
        self.idx = -np.ones(member.size, np.int64)
        self.idx[member.ravel()] = np.arange(self.n_mem)
        # sign class per flat sample (module docstring); all 0 without the proof
        self.classed = mode is Mode.STRICT_SIMPLE and {"W", "P"} <= set(self.factors)
        self.cls = np.zeros(member.size, np.int8)
        if self.classed:
            members = np.nonzero(member.ravel())[0]
            self.cls[members] = _sign_classes(lift(members))

    def bound(self, count: int):
        """(lower_bound, certified) for a count of this grid; Nones without classes."""
        if not self.classed:
            return None, None
        lower = int(np.count_nonzero(np.bincount(self.cls[self.member.ravel()], minlength=3)))
        return lower, count == lower

    def _test(self, i0, i1):
        return _edges_ok(self.lift(i0), self.lift(i1), self.eta, self.mode, self.factors)

    def _edges_for_offsets(self, offs, label=None):
        member = self.member
        mask = np.empty(self.shape, bool)
        rows, cols = [], []
        for off in offs:
            sl0, sl1 = _offset_slices(self.shape, off)
            mask.fill(False)
            pair = mask[sl0]
            np.logical_and(member[sl0], member[sl1], out=pair)
            if label is not None:
                pair &= label[sl0] != label[sl1]
            if not pair.any():
                continue
            i0, i1 = _pair_indices(mask, off)
            ok = self._test(i0, i1)
            rows.append(i0[ok])
            cols.append(i1[ok])
        return rows, cols

    def _merge(self, n, label, rows, cols):
        """(count, labels) once the links rows[k] -- cols[k] join the n components.

        `label` numbers the components 0..n-1 and is -1 off the members; the
        links are flat sample indices.  Later phases use only the partition,
        and `_canonical_labels` renumbers it.
        """
        flat = label.ravel()
        none = np.zeros(0, np.int64)
        r = flat[np.concatenate(rows)] if rows else none
        c = flat[np.concatenate(cols)] if cols else none
        g = sparse.coo_matrix((np.ones(len(r), bool), (r, c)), shape=(n, n))
        n, sub = csgraph.connected_components(g.tocsr(), directed=False)
        # label -1 picks the appended -1
        return n, np.append(sub.astype(np.int64), -1)[label]

    def _rescue_edges(self, label):
        lab_flat = label.ravel()
        member = self.member.ravel()
        cls = self.cls
        lab_mem = lab_flat[member]
        sizes = np.bincount(lab_mem)
        # a certified link never leaves its sign class: search only from
        # small fragments whose class holds another component
        comp_cls = np.zeros(len(sizes), np.int8)
        comp_cls[lab_mem] = cls[member]
        shared = np.bincount(comp_cls, minlength=3)[comp_cls] > 1
        search = (sizes <= RESCUE_MAX_SAMPLES) & shared
        if not search.any():
            return [], []
        src = np.nonzero(member & search[np.maximum(lab_flat, 0)] & (lab_flat >= 0))[0]
        src_multi = np.array(np.unravel_index(src, self.shape))
        rows, cols = [], []
        # candidates of many offsets share one _test call once they number
        # n_mem, the size of an axis batch; every decision is per segment
        pend_s, pend_t, pending = [], [], 0

        def flush():
            s, t = np.concatenate(pend_s), np.concatenate(pend_t)
            ok = self._test(s, t)
            rows.append(s[ok])
            cols.append(t[ok])
            pend_s.clear()
            pend_t.clear()

        dims = np.array(self.shape)[:, None]
        for off in _full_offsets(self.nd, RESCUE_RADIUS):
            if max(abs(o) for o in off) <= LINK_RADIUS:
                continue
            tgt = src_multi + np.array(off)[:, None]
            valid = np.all((tgt >= 0) & (tgt < dims), axis=0)
            if not valid.any():
                continue
            s = src[valid]
            t = np.ravel_multi_index(tuple(tgt[:, valid]), self.shape)
            good = member[t] & (lab_flat[t] != lab_flat[s]) & (cls[t] == cls[s])
            if not good.any():
                continue
            pend_s.append(s[good])
            pend_t.append(t[good])
            pending += len(pend_s[-1])
            if pending >= self.n_mem:
                flush()
                pending = 0
        if pend_s:
            flush()
        return rows, cols

    def run(self):
        """(count, labels): each phase merges the components of the one before."""
        if self.n_mem == 0:
            return 0, None
        nd = self.nd
        axis_offs = [tuple(int(i == k) for i in range(nd)) for k in range(nd)]
        rows, cols = self._edges_for_offsets(axis_offs)
        n, lab = self._merge(self.n_mem, self.idx.reshape(self.shape), rows, cols)
        extra = [o for o in _half_offsets(nd, LINK_RADIUS) if o not in axis_offs]
        rows, cols = self._edges_for_offsets(extra, label=lab)
        if rows:
            n, lab = self._merge(n, lab, rows, cols)
        rows, cols = self._rescue_edges(lab)
        if rows:
            n, lab = self._merge(n, lab, rows, cols)
        return n, lab


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel so ids follow first encounter in row-major order."""
    flat = labels.ravel()
    out = -np.ones_like(flat)
    members = np.nonzero(flat >= 0)[0]
    if len(members):
        old, first = np.unique(flat[members], return_index=True)
        table = np.empty(old[-1] + 1, np.int64)
        table[old[np.argsort(first)]] = np.arange(len(old))
        out[members] = table[flat[members]]
    return out.reshape(labels.shape)


def _report(member, xs, eta, mode, factors=segments.FACTOR_NAMES) -> ComponentReport:
    """Label the members of the grid of `xs`; ids in row-major first-seen order."""
    gc = _GridComponents(member, lambda idx: _lift(xs, idx), eta, mode, factors)
    n, labels = gc.run()
    lower, certified = gc.bound(n)
    if labels is None:
        return ComponentReport(count=0, labels=-np.ones(member.shape, np.int64),
                               lower_bound=lower, certified=certified)
    labels = _canonical_labels(labels)
    free = [x for x in xs if len(x) > 1]
    cell = np.prod([x[1] - x[0] for x in free])
    stats = []
    for k in range(n):
        where = np.nonzero(labels == k)
        bbox = tuple((float(x[i.min()]), float(x[i.max()])) for x, i in zip(free, where))
        samples = len(where[0])
        stats.append(ComponentStats(id=k, samples=samples, bbox=bbox,
                                    area=float(samples * cell)))
    return ComponentReport(count=n, labels=labels, components=stats,
                           lower_bound=lower, certified=certified)


def sample_slice(spec: SliceSpec) -> SliceGrid:
    """Evaluate discriminants and membership on the slice's cell centers."""
    u, v = spec.u_centers(), spec.v_centers()
    return SliceGrid(spec, u, v, *_sample(_slice_xs(spec, u, v), spec.eta, spec.mode))


def components2d(grid: SliceGrid) -> ComponentReport:
    """Label the member samples of a slice; ids in row-major first-seen order."""
    return _report(grid.membership, grid.xs, grid.spec.eta, grid.spec.mode)


def components3d(box: BoxSpec) -> ComponentReport:
    """Label the member cells of a 3-D box; ids in row-major first-seen order."""
    xs = [grid_centers(r, box.resolution) for r in (box.a_range, box.b_range, box.c_range)]
    member = _sample(xs, box.eta, box.mode, box.factors)[3]
    return _report(member, xs, box.eta, box.mode, box.factors)


def grid_oracle_mismatches(grid: SliceGrid, margin: float = 1e-6) -> int:
    """Count samples where strict membership disagrees with the oracle.

    Only samples with all discriminant magnitudes above `margin` are compared.
    """
    robust = ((np.abs(grid.W) > margin) & (np.abs(grid.Q) > margin)
              & (np.abs(grid.P) > margin))
    strict = (grid.W > 0) & (grid.Q > 0) & (grid.P > 0)
    idx = np.nonzero(robust.ravel())[0]
    agree = oracle.real_simple_batch(_lift(grid.xs, idx)) == strict.ravel()[idx]
    return int((~agree).sum())


# ---------------------------------------------------------------------------
# marching-squares boundary tracing
# ---------------------------------------------------------------------------

_FACTOR_EVAL = segments.FACTOR_FORMS

# (edge_in, edge_out) of each case's segments, -1 in an unused slot.  The
# edges of the square (i, j)-(i+1, j+1) are 0 bottom (j), 1 right (i+1),
# 2 top (j+1) and 3 left (i); every segment has the positive corner it cuts
# off on its right.  The saddles 5 and 10 hold their split for a centre
# <= 0; a positive centre takes the reversed segments of the complementary
# case.
_MS_TABLE = np.full((16, 2, 2), -1)
_MS_TABLE[[1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14], 0] = [
    (3, 0), (0, 1), (3, 1), (1, 2), (0, 2), (3, 2),
    (2, 3), (2, 0), (2, 1), (1, 3), (1, 0), (0, 3)]
_MS_TABLE[5] = (3, 0), (1, 2)
_MS_TABLE[10] = (0, 1), (2, 3)


def _contour_segments(grid: SliceGrid, factor: str, clip: bool):
    """(e_in, e_out) edge ids of the marching-squares segments of `factor`.

    The edge from (i, j) to (i+1, j) has id 2 (i len(v) + j), the one from
    (i, j) to (i, j+1) that id plus 1, so ids sort as (i, j, orientation).
    """
    spec, u, v = grid.spec, grid.u, grid.v
    pos = (getattr(grid, factor) > 0.0).astype(np.intp)
    case = pos[:-1, :-1] + 2 * pos[1:, :-1] + 4 * pos[1:, 1:] + 8 * pos[:-1, 1:]
    cut = (case > 0) & (case < 15)
    if clip:
        for name in segments.FACTOR_NAMES:
            if name != factor:
                ok = getattr(grid, name) > -spec.eta
                cut &= ok[:-1, :-1] & ok[1:, :-1] & ok[:-1, 1:] & ok[1:, 1:]
    i, j = np.nonzero(cut)
    k = case[i, j]
    table = _MS_TABLE[k]
    saddle = np.nonzero((k == 5) | (k == 10))[0]
    si, sj = i[saddle], j[saddle]
    center = _FACTOR_EVAL[factor](*spec.abc(0.5 * (u[si] + u[si + 1]),
                                            0.5 * (v[sj] + v[sj + 1])))
    flip = saddle[~(center <= 0)]
    table[flip] = _MS_TABLE[k[flip] ^ 15][:, :, ::-1]
    square, slot = np.nonzero(table[:, :, 0] >= 0)
    edge_offset = np.array([0, 2 * len(v) + 1, 2, 1])
    ids = 2 * (i * len(v) + j)[square, None] + edge_offset[table[square, slot]]
    return ids[:, 0], ids[:, 1]


def trace_boundary(source, factor: str, clip: bool = False):
    """Zero-level contours of one discriminant on a slice.

    `source` is a `SliceSpec`, which is sampled here, or a `SliceGrid`, whose
    samples are used as they are.  Marching squares over the sample grid
    with linear interpolation along cell edges, then a bisection polish so
    every vertex sits on the zero set to within 1e-6 * (1 + |p|^4).  With
    `clip`, segments are kept only in squares where the other two factors
    exceed -eta at all four corners.

    Segments are oriented, so each grid edge has at most one segment
    entering it and at most one leaving it, and chains follow the one
    successor of each edge.  Open chains come first, in ascending order of
    their first edge (i, j, orientation); then each closed loop, from the
    least edge not yet traced.
    """
    factor = factor.upper()
    if factor not in _FACTOR_EVAL:
        raise InvalidInputError(f"factor must be one of W, Q, P, got {factor!r}")
    grid = source if isinstance(source, SliceGrid) else sample_slice(source)
    spec, u, v = grid.spec, grid.u, grid.v
    e_in, e_out = _contour_segments(grid, factor, clip)
    if not len(e_in):
        return []

    def f_point(uu, vv):
        return _FACTOR_EVAL[factor](*spec.abc(uu, vv))

    # bisection along each crossed grid edge, from its lower end
    ids = np.unique(np.concatenate([e_in, e_out]))
    ij, orient = np.divmod(ids, 2)
    i, j = np.divmod(ij, len(v))
    starts = np.stack([u[i], v[j]], axis=1)
    ends = np.stack([u[i + 1 - orient], v[j + orient]], axis=1)
    f_lo = f_point(starts[:, 0], starts[:, 1])
    lo = np.zeros(len(ids))
    hi = np.ones(len(ids))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        pm = starts + mid[:, None] * (ends - starts)
        fm = f_point(pm[:, 0], pm[:, 1])
        same = (fm > 0) == (f_lo > 0)
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    t = 0.5 * (lo + hi)
    coords = starts + t[:, None] * (ends - starts)

    succ = dict(zip(e_in.tolist(), e_out.tolist()))
    curves = []
    # open chains start at the edges no segment enters, loops at the least left
    for e in np.setdiff1d(e_in, e_out).tolist() + np.sort(e_in).tolist():
        if e not in succ:
            continue
        chain = [e]
        while e in succ:
            e = succ.pop(e)
            chain.append(e)
        curves.append(BoundaryCurve(factor=factor,
                                    polyline=coords[np.searchsorted(ids, chain)],
                                    closed=chain[0] == chain[-1]))
    return curves


def thread_count() -> int:
    """Worker cap for slice-level parallelism, from PT_HORIZON_THREADS."""
    raw = os.environ.get("PT_HORIZON_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        n = min(4, os.cpu_count() or 1)
    return n
