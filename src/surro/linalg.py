"""Dense symmetric linear algebra.

Everything downstream (curvature reduction, rate computation, spectrum
transforms) funnels into the operations here: a LAPACK-backed symmetric
eigensolver that rejects non-finite input, inverse square roots, spectral
norms, the spectrum of a pencil (A, B) whitened by a positive-definite A, and
the generalized rate pair rho_inf/rho_sup read off that spectrum.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SurroError

# rho_inf is snapped to 0 when B is numerically singular (0/0 = 0 convention).
SINGULAR_TOL = 1e-12


class LinalgError(SurroError):
    """Base class for numerical linear-algebra failures."""


class NotPositiveDefinite(LinalgError):
    def __init__(self, min_eigenvalue: float):
        super().__init__(f"matrix is not positive-definite (min eigenvalue {min_eigenvalue:.6e})")
        self.min_eigenvalue = min_eigenvalue


class DimensionMismatch(LinalgError):
    pass


class InternalNumericalFailure(LinalgError):
    pass


class Spectrum(NamedTuple):
    """Eigenvalues in ascending order, with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class RatePair(NamedTuple):
    """inf / sup of |v'Bv| / v'Av over nonzero directions; 0 <= rho_inf <= rho_sup."""

    rho_inf: float
    rho_sup: float


def symmetrize(m) -> np.ndarray:
    """Return (M + M') / 2 as a float array; entry point for every symmetric input."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def asymmetry(m) -> float:
    """Max-norm of M - M', kept as a diagnostic before symmetrization."""
    a = np.asarray(m, dtype=float)
    return float(np.max(np.abs(a - a.T))) if a.size else 0.0


def eigh(s) -> Spectrum:
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Input is symmetrized defensively and must be finite: LAPACK does not
    reject NaN (it returns plausible-looking eigenvalues for a NaN entry), so
    non-finite input and LAPACK convergence failures both raise
    InternalNumericalFailure.  Returns ascending eigenvalues and an
    orthonormal eigenvector matrix whose column i pairs with eigenvalue i.
    """
    a = symmetrize(s)
    if not np.all(np.isfinite(a)):
        raise InternalNumericalFailure("eigh input has non-finite entries")
    try:
        lam, vec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise InternalNumericalFailure(f"LAPACK eigh failed: {exc}") from exc
    return Spectrum(lam, vec)


def vector_norm(v) -> float:
    """Euclidean norm of a real 1-D array: sqrt(v.dot(v)), the same floating-point
    operations as np.linalg.norm(v) without its dispatch."""
    return math.sqrt(float(v.dot(v)))


def spectral_norm(m) -> float:
    """Largest singular value, i.e. sqrt of the top eigenvalue of M'M."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    gram = symmetrize(a.T @ a)
    lam = eigh(gram).eigenvalues
    return float(np.sqrt(max(lam[-1], 0.0)))


def _clears_pd_threshold(lam: np.ndarray) -> bool:
    """The PD test on an ascending spectrum: lam_min > 0 and above d * 1e-12 * |lam|_max."""
    return bool(lam[0] > lam.size * 1e-12 * float(np.max(np.abs(lam))) and lam[0] > 0.0)


def is_positive_definite(s) -> tuple[bool, float]:
    """PD test by eigenvalue threshold; returns (verdict, min eigenvalue)."""
    lam = eigh(s).eigenvalues
    return _clears_pd_threshold(lam), float(lam[0])


def inv_sqrt(s) -> np.ndarray:
    """Inverse square root R of a symmetric positive-definite S, with R S R = I."""
    lam, vec = eigh(s)
    if not _clears_pd_threshold(lam):
        raise NotPositiveDefinite(float(lam[0]))
    r = (vec / np.sqrt(lam)) @ vec.T
    return symmetrize(r)


def whitened_eigenvalues(a, b) -> np.ndarray:
    """Ascending eigenvalues of A^{-1/2} B A^{-1/2}, the pencil (A, B) whitened by SPD A."""
    a = symmetrize(a)
    b = symmetrize(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    if not np.all(np.isfinite(b)):
        raise InternalNumericalFailure("rate pair input B has non-finite entries")
    r = inv_sqrt(a)
    return eigh(symmetrize(r @ b @ r)).eigenvalues


def generalized_rate_pair(a, b) -> RatePair:
    """Extreme absolute generalized Rayleigh quotients of B against SPD A.

    rho_sup is the spectral norm of A^{-1/2} B A^{-1/2}; rho_inf the smallest
    absolute eigenvalue of the same matrix, snapped to 0 when B is singular.
    Non-finite entries in either matrix raise InternalNumericalFailure.
    """
    abs_lam = np.abs(whitened_eigenvalues(a, b))
    hi = float(abs_lam.max())
    lo = float(abs_lam.min())
    if lo < SINGULAR_TOL * max(1.0, hi):
        lo = 0.0
    return RatePair(lo, hi)
