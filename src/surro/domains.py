"""Convex feasible sets: membership, Euclidean projection and direction spaces.

Every domain knows how to project a point onto itself, test membership with a
1e-12 slack consistent with that projection, and produce an orthonormal basis
of the span of its feasible differences (the direction space of its affine
hull).  Every domain is closed and has at least one direction: a set of one
point is refused when it is built.  A mirror map's open domain is not a feasible
set: the mirror surrogates are +inf off it, so their numeric solves stay
inside it without any margin here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SurroError
from .linalg import all_finite, vector_norm

MEMBERSHIP_TOL = 1e-12
INTERIOR_MARGIN = 1e-9


def as_vector(x, q: int) -> np.ndarray:
    """x as a float vector of length q, a 0-d value counting as length 1; else raises SurroError.

    A float64 ndarray of shape (q,) comes back as the same object, as
    np.asarray returns it.  No value is looked at, so a NaN or infinite
    vector passes: finiteness is decided by the caller's membership test.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.shape != (q,):
        raise SurroError(f"expected a vector of length {q}, got shape {v.shape}")
    return v


class ConvexDomain:
    """Interface shared by all feasible-set variants."""

    q: int

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        """Membership with slack tol: the one feasibility test of a point.

        Every NaN or infinite point is rejected, without raising, also under
        np.errstate(all="raise"), so callers need no finiteness test of their own.
        """
        raise NotImplementedError

    def project(self, x) -> np.ndarray:
        """Euclidean projection onto the set."""
        raise NotImplementedError

    def is_interior(self, x) -> bool:
        """True when x sits in the relative interior with INTERIOR_MARGIN to spare."""
        raise NotImplementedError

    def interior_point(self) -> np.ndarray:
        raise NotImplementedError

    def direction_basis(self) -> np.ndarray:
        """Orthonormal q x d matrix spanning the feasible-difference space.

        The q x q identity is that of a full-dimensional set; a set inside a
        proper affine subspace must override it.
        """
        return np.eye(self.q)

    def sample(self, rng) -> np.ndarray:
        """Draw a feasible point; used for randomized starts."""
        raise NotImplementedError


@dataclass(frozen=True)
class FullSpace(ConvexDomain):
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise SurroError("dimension must be >= 1")

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return all_finite(as_vector(x, self.q))

    def project(self, x):
        return as_vector(x, self.q).copy()

    def is_interior(self, x):
        return self.contains(x)

    def interior_point(self):
        return np.zeros(self.q)

    def sample(self, rng):
        return rng.gaussian(self.q)


@dataclass(frozen=True)
class Box(ConvexDomain):
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise SurroError("lower/upper must be vectors of equal length")
        if not np.all(lo < hi):
            raise SurroError("box requires lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def q(self):
        return self.lower.shape[0]

    def contains(self, x, tol=MEMBERSHIP_TOL):
        v = as_vector(x, self.q)
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))

    def project(self, x):
        return np.clip(as_vector(x, self.q), self.lower, self.upper)

    def is_interior(self, x):
        v = as_vector(x, self.q)
        pad = INTERIOR_MARGIN * (self.upper - self.lower)
        return bool(np.all(v > self.lower + pad) and np.all(v < self.upper - pad))

    def interior_point(self):
        return 0.5 * (self.lower + self.upper)

    def sample(self, rng):
        u = rng.uniform(self.q)
        return self.lower + u * (self.upper - self.lower)


@dataclass(frozen=True)
class EuclideanBall(ConvexDomain):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.ndim != 1:
            raise SurroError("center must be a vector")
        if not self.radius > 0:
            raise SurroError("radius must be positive")
        object.__setattr__(self, "center", c)

    @property
    def q(self):
        return self.center.shape[0]

    def contains(self, x, tol=MEMBERSHIP_TOL):
        v = as_vector(x, self.q)
        return vector_norm(v - self.center) <= self.radius + tol

    def project(self, x):
        v = as_vector(x, self.q)
        d = v - self.center
        r = vector_norm(d)
        if r <= self.radius:
            return v.copy()
        return self.center + d * (self.radius / r)

    def is_interior(self, x):
        v = as_vector(x, self.q)
        return vector_norm(v - self.center) < self.radius * (1.0 - INTERIOR_MARGIN)

    def interior_point(self):
        return self.center.copy()

    def sample(self, rng):
        d = rng.gaussian(self.q)
        n = vector_norm(d)
        if n == 0.0:
            return self.center.copy()
        u = float(rng.uniform(1)[0])
        return self.center + d / n * self.radius * u ** (1.0 / self.q)


@dataclass(frozen=True)
class Simplex(ConvexDomain):
    q: int
    face_eps: float = INTERIOR_MARGIN

    def __post_init__(self):
        if self.q < 2:
            raise SurroError("dimension must be >= 2")  # a one-point simplex has no directions
        if not 0 <= self.face_eps * self.q < 1:
            raise SurroError("face epsilon too large for this dimension")

    def contains(self, x, tol=MEMBERSHIP_TOL):
        v = as_vector(x, self.q)
        return bool(
            (v >= self.face_eps - tol).all() and abs(float(v.sum()) - 1.0) <= tol
        )

    def project(self, x):
        # shift by the face bound, project onto the shrunk standard simplex, shift back
        v = as_vector(x, self.q) - self.face_eps
        total = 1.0 - self.q * self.face_eps
        if np.isfinite(v).all():
            u = np.sort(v)[::-1]
            with np.errstate(over="ignore"):
                css = np.cumsum(u) - total
            ks = np.arange(1, self.q + 1)
            # a partial sum past the float range passes no test; a coordinate above about
            # 2^53 times the total rounds every test to 0
            cond = (u - css / ks > 0) & np.isfinite(css)
            if cond.any():
                k = int(ks[cond][-1])
                tau = css[k - 1] / k
                return np.maximum(v - tau, 0.0) + self.face_eps
        raise SurroError(
            f"point {as_vector(x, self.q)} cannot be projected onto the simplex in floating point"
        )

    def is_interior(self, x):
        v = as_vector(x, self.q)
        if abs(float(np.sum(v)) - 1.0) > MEMBERSHIP_TOL:
            return False
        return bool(np.all(v > self.face_eps + INTERIOR_MARGIN))

    def interior_point(self):
        return np.full(self.q, 1.0 / self.q)

    def direction_basis(self):
        # Helmert-style orthonormal basis of the zero-sum subspace
        p = np.zeros((self.q, self.q - 1))
        for k in range(1, self.q):
            p[:k, k - 1] = 1.0
            p[k, k - 1] = -k
            p[:, k - 1] /= np.sqrt(k * (k + 1))
        return p

    def sample(self, rng):
        e = -np.log(1.0 - rng.uniform(self.q))
        return self.project(e / float(np.sum(e)))


@dataclass(frozen=True)
class AffineSlice(ConvexDomain):
    """Intersection of an affine subspace {x : Cx = b} with a bounding box."""

    constraints: np.ndarray
    offsets: np.ndarray
    inside: Box
    _null_basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.constraints, dtype=float))
        b = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if c.shape[0] != b.shape[0]:
            raise SurroError("row count of C must match length of b")
        if c.shape[1] != self.inside.q:
            raise SurroError("C column count must match the box dimension")
        rank = np.linalg.matrix_rank(c)
        if rank != c.shape[0]:
            raise SurroError("rows of C must be linearly independent")
        if rank == c.shape[1]:
            raise SurroError("constraints pin the slice to a single point")
        object.__setattr__(self, "constraints", c)
        object.__setattr__(self, "offsets", b)
        _, _, vt = np.linalg.svd(c)
        object.__setattr__(self, "_null_basis", vt[c.shape[0]:].T.copy())

    @property
    def q(self):
        return self.inside.q

    def _project_affine(self, v):
        c, b = self.constraints, self.offsets
        resid = c @ v - b
        return v - c.T @ np.linalg.solve(c @ c.T, resid)

    def _on_affine(self, v, tol) -> bool:
        scale = 1.0 + float(np.max(np.abs(self.offsets), initial=0.0))
        return float(np.max(np.abs(self.constraints @ v - self.offsets))) <= tol * scale

    def contains(self, x, tol=MEMBERSHIP_TOL):
        v = as_vector(x, self.q)
        # finiteness first: C @ v would meet inf - inf or 0 * inf
        finite = bool(np.all(np.isfinite(v)))
        return finite and self._on_affine(v, tol) and self.inside.contains(v, tol)

    def project(self, x):
        # Dykstra's alternating projections onto the affine set and the box
        v = as_vector(x, self.q)
        p = np.zeros_like(v)
        qcorr = np.zeros_like(v)
        y = v.copy()
        for _ in range(200):
            ya = self._project_affine(y + p)
            p = y + p - ya
            yb = self.inside.project(ya + qcorr)
            qcorr = ya + qcorr - yb
            if vector_norm(yb - y) <= 1e-14 * (1.0 + vector_norm(y)):
                y = yb
                break
            y = yb
        return self._project_affine(y)

    def is_interior(self, x):
        v = as_vector(x, self.q)
        return self._on_affine(v, MEMBERSHIP_TOL) and self.inside.is_interior(v)

    def interior_point(self):
        return self.project(self.inside.interior_point())

    def direction_basis(self):
        return self._null_basis.copy()

    def sample(self, rng):
        return self.project(self.inside.sample(rng))
