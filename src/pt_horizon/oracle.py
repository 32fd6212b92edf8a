"""Independent eigenvalue ground truth for 4x4 real matrices.

Deliberately ignorant of the closed-form root formulas: eigenvalues come
from dense Hessenberg/QR iteration (LAPACK dgeev via numpy) and the
characteristic polynomial from the Faddeev-LeVerrier recursion, so every
model-layer formula can be cross-validated against this module.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .model import PointLike, as_point, build_circular
from .spectrum import (SpectralClass, Spectrum, classify_values, gap_tolerance,
                       imag_tolerance)


class QuarticPoly(NamedTuple):
    """Monic characteristic polynomial c4 E^4 + c3 E^3 + c2 E^2 + c1 E + c0."""

    c4: float
    c3: float
    c2: float
    c1: float
    c0: float

    def __call__(self, e):
        return (((self.c4 * e + self.c3) * e + self.c2) * e + self.c1) * e + self.c0


def _check_matrix(H) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    if H.shape != (4, 4):
        raise InvalidInputError(f"expected a 4x4 matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise InvalidInputError("matrix entries must be finite")
    return H


def char_poly(H) -> QuarticPoly:
    """det(E*I - H) by the Faddeev-LeVerrier trace recursion."""
    H = _check_matrix(H)
    eye = np.eye(4)
    M = eye.copy()
    coeffs = [1.0]
    for k in range(1, 5):
        M = H @ M
        ck = -np.trace(M) / k
        coeffs.append(float(ck))
        M = M + ck * eye
    c4, c3, c2, c1, c0 = coeffs
    return QuarticPoly(c4, c3, c2, c1, c0)


def eigenvalues(H) -> Spectrum:
    """Classified spectrum via the dense QR solver (never silent on failure)."""
    H = _check_matrix(H)
    try:
        vals = np.linalg.eigvals(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue iteration failed: {exc}") from exc
    return classify_values(vals)


def eigenvalues_batch(Hs: np.ndarray) -> np.ndarray:
    """Raw eigenvalues for a stack of matrices, shape (n, 4, 4) -> (n, 4)."""
    Hs = np.asarray(Hs, dtype=float)
    try:
        return np.linalg.eigvals(Hs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"batched eigenvalue iteration failed: {exc}") from exc


def eigenpairs(H):
    """(values, vectors) with per-pair residual check |Hv - lambda v| <= 1e-8 |H|."""
    H = _check_matrix(H)
    try:
        vals, vecs = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue iteration failed: {exc}") from exc
    h_norm = np.linalg.norm(H, 2)
    for k in range(4):
        resid = np.linalg.norm(H @ vecs[:, k] - vals[k] * vecs[:, k])
        if resid > 1e-8 * h_norm:
            raise NumericalFailureError(
                f"eigenpair residual {resid:g} exceeds 1e-8 * |H| = {1e-8 * h_norm:g}")
    return vals, vecs


def in_domain_oracle(p: PointLike) -> bool:
    """True iff the sampled Hamiltonian has a real, non-degenerate spectrum."""
    return eigenvalues(build_circular(as_point(p))).classification is SpectralClass.REAL_SIMPLE


def build_circular_batch(points: np.ndarray) -> np.ndarray:
    """Stack of loop Hamiltonians for points of shape (n, 3)."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    a, b, c = points[:, 0], points[:, 1], points[:, 2]
    Hs = np.zeros((n, 4, 4))
    Hs[:, 0, 0], Hs[:, 1, 1], Hs[:, 2, 2], Hs[:, 3, 3] = -3.0, -1.0, 1.0, 3.0
    Hs[:, 0, 1], Hs[:, 1, 0] = b, -b
    Hs[:, 1, 2], Hs[:, 2, 1] = c, -c
    Hs[:, 2, 3], Hs[:, 3, 2] = b, -b
    Hs[:, 0, 3], Hs[:, 3, 0] = -a, a
    return Hs


def real_simple_batch(points: np.ndarray) -> np.ndarray:
    """Vector of in_domain_oracle decisions for points of shape (n, 3)."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return np.zeros(0, dtype=bool)
    vals = eigenvalues_batch(build_circular_batch(points))
    rho = np.abs(vals).max(axis=1)
    is_real = np.all(np.abs(vals.imag) <= imag_tolerance(rho)[:, None], axis=1)
    diffs = np.abs(vals[:, :, None] - vals[:, None, :])
    diffs[:, np.arange(4), np.arange(4)] = np.inf
    min_gap = diffs.min(axis=(1, 2))
    return is_real & (min_gap >= gap_tolerance(rho))


def real_spectrum_batch(points: np.ndarray) -> np.ndarray:
    """True where the spectrum is real, degeneracy allowed."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return np.zeros(0, dtype=bool)
    vals = eigenvalues_batch(build_circular_batch(points))
    rho = np.abs(vals).max(axis=1)
    return np.all(np.abs(vals.imag) <= imag_tolerance(rho)[:, None], axis=1)
