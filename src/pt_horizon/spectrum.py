"""Spectrum container and reality/degeneracy classification.

Classification thresholds scale with the spectral radius because the
characteristic coefficients grow quartically with the coupling strengths.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class SpectralClass(Enum):
    REAL_SIMPLE = "RealSimple"
    REAL_DEGENERATE = "RealDegenerate"
    COMPLEX = "Complex"


@dataclass(frozen=True)
class Spectrum:
    """Four eigenvalues with their reality/degeneracy classification."""

    values: np.ndarray            # shape (4,), complex
    classification: SpectralClass
    min_gap: float                # smallest pairwise |difference|

    def is_real(self) -> bool:
        return self.classification is not SpectralClass.COMPLEX


def min_pairwise_gap(values: np.ndarray) -> float:
    values = np.asarray(values)
    diffs = np.abs(values[:, None] - values[None, :])
    n = len(values)
    return float(diffs[~np.eye(n, dtype=bool)].min())


def imag_tolerance(rho):
    """Largest |Im E| still read as real, at spectral radius `rho`."""
    return 1e-9 * (1.0 + rho)


def gap_tolerance(rho):
    """Smallest eigenvalue gap read as simple, at spectral radius `rho`."""
    return 1e-8 * (1.0 + rho)


def classify_values(values) -> Spectrum:
    """Wrap raw eigenvalues in a classified Spectrum.

    Complex if any imaginary part exceeds `imag_tolerance(rho)`; otherwise
    degenerate if the smallest gap is below `gap_tolerance(rho)`, with rho
    the spectral radius.
    """
    values = np.asarray(values, dtype=complex).reshape(4)
    rho = float(np.max(np.abs(values)))
    gap = min_pairwise_gap(values)
    if np.any(np.abs(values.imag) > imag_tolerance(rho)):
        cls = SpectralClass.COMPLEX
    elif gap < gap_tolerance(rho):
        cls = SpectralClass.REAL_DEGENERATE
    else:
        cls = SpectralClass.REAL_SIMPLE
    return Spectrum(values=values, classification=cls, min_gap=gap)


def sort_key(values: np.ndarray) -> np.ndarray:
    """Values sorted by (|Re|, |Im|, Re, Im); stable under small perturbations."""
    values = np.asarray(values, dtype=complex)
    order = np.lexsort((values.imag, values.real,
                        np.abs(values.imag), np.abs(values.real)))
    return values[order]


def plus_minus_residual(values: np.ndarray) -> float:
    """How far the multiset is from being symmetric under E -> -E.

    Greedy matching of each value with the best partner for cancellation;
    returns the largest |E_i + E_j| over matched pairs.
    """
    vals = list(np.asarray(values, dtype=complex))
    worst = 0.0
    while vals:
        v = vals.pop(0)
        sums = [abs(v + w) for w in vals]
        k = int(np.argmin(sums))
        worst = max(worst, sums[k])
        vals.pop(k)
    return worst
