"""Dense symmetric linear algebra.

Everything downstream (curvature reduction, rate computation, spectrum
transforms) funnels into the four operations here: a LAPACK-backed symmetric
eigensolver that rejects non-finite input, inverse square roots, spectral
norms and the generalized rate pair rho_inf/rho_sup of a pencil (A, B) with
A positive-definite.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# rho_inf is snapped to 0 when B is numerically singular (0/0 = 0 convention).
SINGULAR_TOL = 1e-12


class LinalgError(Exception):
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


def spectral_norm(m) -> float:
    """Largest singular value, i.e. sqrt of the top eigenvalue of M'M."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    gram = symmetrize(a.T @ a)
    lam = eigh(gram).eigenvalues
    return float(np.sqrt(max(lam[-1], 0.0)))


def is_positive_definite(s) -> tuple[bool, float]:
    """PD test by eigenvalue threshold; returns (verdict, min eigenvalue)."""
    lam = eigh(s).eigenvalues
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    ok = lam[0] > lam.size * 1e-12 * scale and lam[0] > 0.0
    return bool(ok), float(lam[0])


def inv_sqrt(s) -> np.ndarray:
    """Inverse square root R of a symmetric positive-definite S, with R S R = I."""
    a = symmetrize(s)
    lam, vec = eigh(a)
    scale = float(np.max(np.abs(lam)))
    if not (lam[0] > a.shape[0] * 1e-12 * scale and lam[0] > 0.0):
        raise NotPositiveDefinite(float(lam[0]))
    r = (vec / np.sqrt(lam)) @ vec.T
    return symmetrize(r)


def generalized_rate_pair(a, b) -> RatePair:
    """Extreme absolute generalized Rayleigh quotients of B against SPD A.

    rho_sup is the spectral norm of A^{-1/2} B A^{-1/2}; rho_inf the smallest
    absolute eigenvalue of the same matrix, snapped to 0 when B is singular.
    Non-finite entries in either matrix raise InternalNumericalFailure.
    """
    a = symmetrize(a)
    b = symmetrize(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    if not np.all(np.isfinite(b)):
        raise InternalNumericalFailure("rate pair input B has non-finite entries")
    r = inv_sqrt(a)
    core = symmetrize(r @ b @ r)
    lam = eigh(core).eigenvalues
    abs_lam = np.abs(lam)
    hi = float(abs_lam.max())
    lo = float(abs_lam.min())
    if lo < SINGULAR_TOL * max(1.0, hi):
        lo = 0.0
    return RatePair(lo, hi)
