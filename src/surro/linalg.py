"""Dense symmetric linear algebra.

Everything downstream (curvature reduction, rate computation, spectrum
transforms) funnels into the operations here: a LAPACK-backed symmetric
eigensolver that rejects non-finite input, inverse square roots, spectral
norms, the spectrum of a pencil (A, B) whitened by a positive-definite A, and
the generalized rate pair rho_inf/rho_sup read off that spectrum.

`symmetrize`, `eigh`, `inv_sqrt`, `spectral_norm`, `whitened_eigenvalues` and
`generalized_rate_pair` take a matrix (d, d) or a stack (..., d, d) through the same
lines, and `spectrum_rate_pair` a spectrum (d,) or a stack (..., d). They give one
result per matrix, a float where one matrix gives a scalar; a stack with a bad
member raises what that member raises alone.

A per-point check of a q-vector takes no ufunc reduction, whose dispatch costs microseconds
on a 2-vector: `vector_norm`, `all_finite` and `max_abs` give numpy's answer without one.
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


class Spectrum(NamedTuple):
    """Eigenvalues (..., d) in ascending order, with matching orthonormal columns (..., d, d)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class RatePair(NamedTuple):
    """inf / sup of |v'Bv| / v'Av over nonzero directions; 0 <= rho_inf <= rho_sup."""

    rho_inf: float
    rho_sup: float


def _per_matrix(x: np.ndarray):
    """A result with one value per matrix: a float for one matrix, an array for a stack."""
    return float(x) if x.ndim == 0 else x


def symmetrize(m) -> np.ndarray:
    """Return (M + M') / 2 as a float array; entry point for every symmetric input."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.swapaxes(-1, -2))


def asymmetry(m) -> float:
    """Max-norm of M - M', kept as a diagnostic before symmetrization."""
    a = np.asarray(m, dtype=float)
    return float(np.max(np.abs(a - a.T))) if a.size else 0.0


def eigh(s) -> Spectrum:
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Input is symmetrized here, so callers need not symmetrize it, and must
    be finite: LAPACK does not reject NaN (it returns plausible-looking
    eigenvalues for a NaN entry), so non-finite input and LAPACK convergence
    failures both raise LinalgError.  Returns ascending eigenvalues and an
    orthonormal eigenvector matrix whose column i pairs with eigenvalue i.
    """
    a = symmetrize(s)
    if not np.isfinite(a).all():
        raise LinalgError("eigh input has non-finite entries")
    try:
        lam, vec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"LAPACK eigh failed: {exc}") from exc
    return Spectrum(lam, vec)


def vector_norm(v) -> float:
    """Euclidean norm of a real 1-D array: sqrt(v.dot(v)), the same floating-point
    operations as np.linalg.norm(v) without its dispatch."""
    return math.sqrt(float(v.dot(v)))


def all_finite(v) -> bool:
    """bool(np.isfinite(v).all()) for a real 1-D array, without the reduction."""
    return all(map(math.isfinite, v.tolist()))


def max_abs(v) -> float:
    """float(np.abs(v).max()) for a real 1-D array, without the reduction; NaN when v
    holds a NaN, as np.max gives (Python's max skips a NaN that is not the first item)."""
    a = [abs(x) for x in v.tolist()]
    return math.nan if math.isnan(sum(a)) else max(a)


def finite_norms(vectors, what: str) -> np.ndarray:
    """vector_norm of each vector, squared without a warning; LinalgError naming `what`
    when a square leaves the floating-point range (a norm above ~1.34e154)."""
    with np.errstate(over="ignore"):
        out = np.array([vector_norm(v) for v in vectors])
    if not np.isfinite(out).all():
        raise LinalgError(f"cannot take the norm of {what}: its square overflows")
    return out


def spectral_norm(m) -> float | np.ndarray:
    """Largest singular value, i.e. sqrt of the top eigenvalue of M'M."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2:
        raise LinalgError(f"expected a matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # before M'M, where an inf meeting a 0 warns
        raise LinalgError("spectral_norm input has non-finite entries")
    lam = eigh(a.swapaxes(-1, -2) @ a).eigenvalues
    return _per_matrix(np.sqrt(np.maximum(lam[..., -1], 0.0)))


def _clears_pd_threshold(lam: np.ndarray) -> np.ndarray:
    """The PD test on ascending spectra (..., d): lam_min > 0 and above d * 1e-12 * |lam|_max."""
    lo = lam[..., 0]
    return (lo > lam.shape[-1] * 1e-12 * np.abs(lam).max(axis=-1)) & (lo > 0.0)


def is_positive_definite(s) -> tuple[bool, float]:
    """PD test by eigenvalue threshold; returns (verdict, min eigenvalue)."""
    lam = eigh(s).eigenvalues
    return bool(_clears_pd_threshold(lam)), float(lam[0])


def inv_sqrt(s) -> np.ndarray:
    """Inverse square root R of a symmetric positive-definite S, with R S R = I."""
    lam, vec = eigh(s)
    pd = _clears_pd_threshold(lam)
    if not pd.all():
        raise NotPositiveDefinite(float(lam[..., 0][~pd][0]))
    r = (vec / np.sqrt(lam)[..., None, :]) @ vec.swapaxes(-1, -2)
    return symmetrize(r)


def whitened_eigenvalues(a, b) -> np.ndarray:
    """Ascending eigenvalues of A^{-1/2} B A^{-1/2}, the pencil (A, B) whitened by SPD A."""
    a = symmetrize(a)
    b = symmetrize(b)
    if a.shape != b.shape:
        raise LinalgError(f"shape mismatch {a.shape} vs {b.shape}")
    if not np.isfinite(b).all():
        raise LinalgError("rate pair input B has non-finite entries")
    r = inv_sqrt(a)
    return eigh(r @ b @ r).eigenvalues


def spectrum_rate_pair(lam) -> RatePair:
    """Extreme absolute values of spectra (..., d), in any order, rho_inf snapped to 0
    when it is below SINGULAR_TOL * max(1, rho_sup) (a numerically singular B)."""
    abs_lam = np.abs(lam)
    lo, hi = abs_lam.min(axis=-1), abs_lam.max(axis=-1)
    lo = np.where(lo < SINGULAR_TOL * np.maximum(1.0, hi), 0.0, lo)
    return RatePair(_per_matrix(lo), _per_matrix(hi))


def generalized_rate_pair(a, b) -> RatePair:
    """Extreme absolute generalized Rayleigh quotients of B against SPD A: the
    spectrum_rate_pair of the whitened pencil.  Non-finite entries raise LinalgError."""
    return spectrum_rate_pair(whitened_eigenvalues(a, b))
