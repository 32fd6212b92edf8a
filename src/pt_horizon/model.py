"""Closed-form layer for the four-site lattice Hamiltonians.

The circular model couples the chain ends through an antisymmetric corner
entry `a` on top of the nearest-neighbour couplings `b` (outer bonds) and
`c` (central bond).  Its spectrum is real and non-degenerate exactly where
the three discriminants W, Q, P are simultaneously positive, which is what
everything else in this package samples, certifies, and maps.

All polynomial evaluators accept Python ints and Fractions (exact), floats,
numpy arrays, exact polynomials in t (`segments.RationalPoly`: a form at
three lines is its exact restriction to them) and magnitudes, whose
subtraction adds (`segments.magnitude`: the bound of the form's rounding).
Each form is written out here only.  They keep no shared state, so they are
safe for concurrent use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, InvalidInputError, PreconditionError
from .spectrum import Spectrum, classify_values

Hamiltonian4 = np.ndarray  # 4x4 real matrix

SITE_ENERGIES = (-3.0, -1.0, 1.0, 3.0)


@dataclass(frozen=True)
class CouplingPoint:
    """A point (a, b, c) of real coupling space."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidInputError(f"coupling {name} must be finite, got {v!r}")

    def __iter__(self):
        return iter((self.a, self.b, self.c))

    def norm(self) -> float:
        return math.sqrt(self.a ** 2 + self.b ** 2 + self.c ** 2)


PointLike = Union[CouplingPoint, Sequence[float]]


def as_point(p: PointLike) -> CouplingPoint:
    if isinstance(p, CouplingPoint):
        return p
    a, b, c = p
    return CouplingPoint(float(a), float(b), float(c))


class DiscriminantTriple(NamedTuple):
    W: float
    Q: float
    P: float


class SecularQuadratic(NamedTuple):
    """Coefficients of the reduced secular polynomial s**2 + q1*s + q0 in s = E**2."""

    q1: float
    q0: float


class SRoots(NamedTuple):
    s_plus: complex
    s_minus: complex


class StripCoordinates(NamedTuple):
    tau: float
    phi: float


# ---------------------------------------------------------------------------
# polynomial forms (polymorphic: ints stay exact, arrays vectorize)
# ---------------------------------------------------------------------------

def eval_w(a, b, c):
    """Compact quartic discriminant W."""
    return (8 + c * c - a * a) ** 2 - 4 * (16 - (a + c) ** 2) * (b * b)


def eval_w_expanded(a, b, c):
    """Term-by-term expansion of W; must agree with eval_w identically."""
    return (64 + 16 * c * c - 64 * b * b - 16 * a * a
            + c ** 4 + 4 * c * c * b * b - 2 * c * c * a * a
            + 4 * b * b * a * a + a ** 4 + 8 * c * a * b * b)


def eval_q(a, b, c):
    """Product-form discriminant Q; its sign controls zero-energy crossings."""
    return ((a + 3) * (c - 1) - b * b) * ((a - 3) * (c + 1) - b * b)


def eval_p(a, b, c):
    """Trace-type discriminant P = 10 - a^2 - 2 b^2 - c^2 (an ellipsoid)."""
    return 10 - a * a - 2 * (b * b) - c * c


def eval_q1(a, b, c):
    return -10 + c * c + 2 * (b * b) + a * a


def eval_q0(a, b, c):
    return (9 + 6 * (b * b) - 9 * (c * c) + b ** 4 - 2 * c * a * (b * b)
            - a * a + (c * c) * (a * a))


def w_b0_square_root_term(a, c):
    """The quadratic whose square is W on the b = 0 plane."""
    return 8 + c * c - a * a


def w_b1_factored(a, c):
    """Factorized W at b = 1: (a + c) times a cubic cofactor."""
    return (a + c) * (a ** 3 - c * a * a - 12 * a - c * c * a + 20 * c + c ** 3)


def w_c0(a, b):
    return (8 - a * a) ** 2 - 4 * (16 - a * a) * (b * b)


def q_c0(a, b):
    return (3 + b * b + a) * (3 + b * b - a)


def p_c0(a, b):
    return 10 - a * a - 2 * (b * b)


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------

def build_circular(p: PointLike) -> Hamiltonian4:
    """Four-site loop Hamiltonian with end-to-end coupling a.

    Diagonal (-3, -1, 1, 3); antisymmetric off-diagonal pattern with b on the
    outer bonds, c on the central bond, and -a/a in the corners.
    """
    p = as_point(p)
    a, b, c = p.a, p.b, p.c
    return np.array([
        [-3.0, b, 0.0, -a],
        [-b, -1.0, c, 0.0],
        [0.0, -c, 1.0, b],
        [a, 0.0, -b, 3.0],
    ])


def build_straight(b: float, c: float) -> Hamiltonian4:
    """Open-chain Hamiltonian; equals the loop model with a = 0."""
    return build_circular(CouplingPoint(0.0, float(b), float(c)))


def parity_matrix(n: int) -> np.ndarray:
    """Alternating-sign diagonal parity, starting at +1."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidInputError(f"parity_matrix needs a positive integer size, got {n!r}")
    return np.diag([(-1.0) ** k for k in range(n)])


# ---------------------------------------------------------------------------
# discriminants, secular quadratic, energies
# ---------------------------------------------------------------------------

def eval_discriminants(p: PointLike) -> DiscriminantTriple:
    p = as_point(p)
    return DiscriminantTriple(
        W=eval_w(p.a, p.b, p.c),
        Q=eval_q(p.a, p.b, p.c),
        P=eval_p(p.a, p.b, p.c),
    )


def secular_coeffs(p: PointLike) -> SecularQuadratic:
    p = as_point(p)
    return SecularQuadratic(q1=eval_q1(p.a, p.b, p.c), q0=eval_q0(p.a, p.b, p.c))


def s_roots(p: PointLike) -> SRoots:
    """Roots s_pm = (P +- sqrt(W))/2 of the reduced quadratic, complex if W < 0."""
    p = as_point(p)
    W, _, P = eval_discriminants(p)
    sqrt_w = np.lib.scimath.sqrt(W)
    return SRoots(s_plus=complex((P + sqrt_w) / 2), s_minus=complex((P - sqrt_w) / 2))


def energies(p: PointLike) -> Spectrum:
    """Closed-form eigenvalues (+-sqrt(s_plus), +-sqrt(s_minus)), classified."""
    roots = s_roots(p)
    e_plus = complex(np.lib.scimath.sqrt(roots.s_plus))
    e_minus = complex(np.lib.scimath.sqrt(roots.s_minus))
    return classify_values([e_plus, -e_plus, e_minus, -e_minus])


def limit_energies(p: PointLike, boundary: str) -> list:
    """Limiting spectrum on a named discriminant boundary.

    W: two doubly degenerate pairs +-sqrt(P/2); Q: a zero pair plus +-sqrt(P);
    P: the fourfold zero.  The point must actually lie on the named boundary,
    within |factor| <= 1e-9 * (1 + |p|^4).
    """
    p = as_point(p)
    boundary = boundary.upper()
    if boundary not in ("W", "Q", "P"):
        raise InvalidInputError(f"boundary must be one of W, Q, P, got {boundary!r}")
    tri = eval_discriminants(p)
    factor = getattr(tri, boundary)
    tol = 1e-9 * (1.0 + p.norm() ** 4)
    if abs(factor) > tol:
        raise PreconditionError(
            f"{boundary} = {factor:g} is not zero at {tuple(p)} (tolerance {tol:g})")
    P = tri.P
    if boundary == "W":
        if P <= 0:
            raise DomainError(f"W-boundary limit needs P > 0, got P = {P:g}")
        e = math.sqrt(P / 2.0)
        return sorted([-e, -e, e, e])
    if boundary == "Q":
        if P < 0:
            raise DomainError(f"Q-boundary limit needs P >= 0, got P = {P:g}")
        e = math.sqrt(P)
        return sorted([0.0, 0.0, -e, e])
    return [0.0, 0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# strip reparametrization of the W > 0 region
# ---------------------------------------------------------------------------

def strip_coords(a: float, c: float) -> Optional[StripCoordinates]:
    """(tau, phi) with c - a = 2 tau and c + a = 4 sin(phi); None outside |a+c| < 4."""
    if not (math.isfinite(a) and math.isfinite(c)):
        raise InvalidInputError("strip_coords needs finite couplings")
    if abs(a + c) >= 4.0:
        return None
    return StripCoordinates(tau=(c - a) / 2.0, phi=math.asin((c + a) / 4.0))


def w_positive_via_strip(p: PointLike) -> bool:
    """Sign of W decided through the strip picture.

    Outside the strip |a+c| < 4 the quartic is a sum of squares, so W > 0 away
    from a measure-zero set; inside, positivity reduces to
    |b| < |1 + tau sin(phi)| / cos(phi).
    """
    p = as_point(p)
    sc = strip_coords(p.a, p.c)
    if sc is None:
        return eval_w(p.a, p.b, p.c) > 0
    bound = abs(1.0 + sc.tau * math.sin(sc.phi)) / math.cos(sc.phi)
    return abs(p.b) < bound


def c0_bound(a: float) -> float:
    """Largest |b| keeping W positive on the c = 0 plane: |8-a^2| / (2 sqrt(16-a^2)).

    The prefactor 1/2 is the one consistent with the sign of W; the identity
    suite cross-checks it against the alternative 1/4 normalization.
    """
    if not math.isfinite(a):
        raise InvalidInputError("c0_bound needs a finite coupling")
    if a * a >= 16.0:
        raise DomainError(f"c0_bound needs a^2 < 16, got a = {a:g}")
    return abs(8.0 - a * a) / (2.0 * math.sqrt(16.0 - a * a))
