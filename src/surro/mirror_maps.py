"""Mirror maps and Bregman machinery.

Three maps are shipped: the quadratic map (plain Euclidean geometry), negative
entropy on the positive orthant (simplex geometry) and a barrier-style map on
an open ball whose gradient diverges at the boundary, suitable for globally
convergent extragradient runs on compact sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import INTERIOR_MARGIN, Box, ConvexDomain, Simplex, as_vector
from .errors import SurroError

CLOSURE_TOL = 1e-12  # slack of the domain-closure membership checks


class MirrorError(SurroError):
    pass


class OutsideMirrorDomain(MirrorError):
    pass


class ProjectionFailed(MirrorError):
    pass


class MirrorMap:
    """Strictly convex map with value/grad/hess callables on an open domain."""

    q: int

    def value(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def hess(self, x) -> np.ndarray:
        raise NotImplementedError

    def in_domain(self, x) -> bool:
        """Membership in the open domain: the one test of a map point.

        Every NaN or infinite point is rejected, without raising, so _require,
        which value, grad and hess call, has no finiteness test of its own.
        """
        raise NotImplementedError

    def in_closure(self, x) -> bool:
        """Membership in the closure of the map's domain."""
        return self.in_domain(x)

    def pull_inside(self, x) -> np.ndarray:
        """Move x into the open domain by the interior margin if needed."""
        raise NotImplementedError

    def strong_convexity(self, domain: ConvexDomain) -> float | None:
        """Analytic lower bound on the Hessian spectrum over the domain, if known."""
        return None

    def closed_projection(self, domain: ConvexDomain, zeta) -> np.ndarray | None:
        """Closed-form Bregman projection onto the domain, when one exists."""
        return None

    def _require(self, x) -> np.ndarray:
        v = as_vector(x, self.q, MirrorError)
        if not self.in_domain(v):
            raise OutsideMirrorDomain(f"point {v} is outside the mirror-map domain")
        return v


@dataclass(frozen=True)
class QuadraticMap(MirrorMap):
    """Phi(x) = x'x / 2 on all of R^q; Bregman divergence is half squared distance."""

    q: int

    def value(self, x):
        v = self._require(x)
        return 0.5 * float(v @ v)

    def grad(self, x):
        return self._require(x).copy()

    def hess(self, x):
        self._require(x)
        return np.eye(self.q)

    def in_domain(self, x):
        return bool(np.isfinite(x).all())

    def pull_inside(self, x):
        return np.atleast_1d(np.asarray(x, dtype=float)).copy()

    def strong_convexity(self, domain):
        return 1.0

    def closed_projection(self, domain, zeta):
        return domain.project(zeta)


@dataclass(frozen=True)
class NegEntropyMap(MirrorMap):
    """Phi(x) = sum x_i log x_i on the open positive orthant."""

    q: int

    def value(self, x):
        v = self._require(x)
        return float((v * np.log(v)).sum())

    def grad(self, x):
        v = self._require(x)
        return 1.0 + np.log(v)

    def hess(self, x):
        v = self._require(x)
        return np.diag(1.0 / v)

    def in_domain(self, x):
        v = np.asarray(x)
        return bool(np.isfinite(v).all() and (v > 0.0).all())

    def in_closure(self, x):
        v = np.asarray(x)
        return bool(np.isfinite(v).all() and (v >= -CLOSURE_TOL).all())

    def pull_inside(self, x):
        return np.maximum(np.atleast_1d(np.asarray(x, dtype=float)), INTERIOR_MARGIN)

    def strong_convexity(self, domain):
        if isinstance(domain, Simplex):
            return 1.0  # coordinates are <= 1, so 1/x_i >= 1
        if isinstance(domain, Box) and np.all(domain.lower > 0):
            return float(1.0 / np.max(domain.upper))
        return None

    def closed_projection(self, domain, zeta):
        if isinstance(domain, Simplex):
            z = as_vector(zeta, self.q, MirrorError)
            out = z / float(z.sum())  # exact entropy projection of a positive vector
            if out.min() < domain.face_eps:
                out = domain.project(out)
            return out
        return None


@dataclass(frozen=True)
class BallMap(MirrorMap):
    """Phi(x) = |x|^2 / (r2 - |x|^2) on the open ball of squared radius r2.

    The gradient norm diverges at the boundary, so Bregman steps can never
    leave the ball regardless of the step size.  value, grad and hess check a
    point with one squared norm s = x'x, which the formula then reuses: a NaN
    or infinite coordinate makes s NaN or infinite, so `s < r2` also rejects
    non-finite points, there and in in_domain / in_closure.
    """

    q: int
    r2: float

    def __post_init__(self):
        if not self.r2 > 0:
            raise MirrorError("squared radius must be positive")

    def _point(self, x) -> tuple[np.ndarray, float]:
        """The point as a length-q vector and its squared norm; raises outside the ball."""
        v = as_vector(x, self.q, MirrorError)
        s = float(v @ v)
        if not s < self.r2:
            raise OutsideMirrorDomain(f"point {v} is outside the mirror-map domain")
        return v, s

    def _require(self, x):
        return self._point(x)[0]

    def value(self, x):
        _, s = self._point(x)
        return s / (self.r2 - s)

    def grad(self, x):
        v, s = self._point(x)
        return 2.0 * self.r2 * v / (self.r2 - s) ** 2

    def hess(self, x):
        # (2 r2/den^2) I + (8 r2/den^3) vv', rounded entry by entry as that sum is:
        # (8 r2/den^3)(v_i v_j), plus 2 r2/den^2 on the diagonal and 0.0 off it,
        # which turns -0.0 into 0.0
        v, s = self._point(x)
        den = self.r2 - s
        a = 2.0 * self.r2 / den**2
        h = v[:, None] * v
        h *= 8.0 * self.r2 / den**3
        h += 0.0
        h.ravel()[:: self.q + 1] += a
        return h

    def in_domain(self, x):
        v = np.atleast_1d(x)
        return float(v @ v) < self.r2

    def in_closure(self, x):
        v = np.atleast_1d(x)
        return float(v @ v) <= self.r2 * (1.0 + CLOSURE_TOL)

    def pull_inside(self, x):
        v = as_vector(x, self.q, MirrorError)
        s = float(v @ v)
        cap = self.r2 * (1.0 - INTERIOR_MARGIN)
        if s >= cap:
            v = v * math.sqrt(cap / s)
        return v

    def strong_convexity(self, domain):
        return 2.0 / self.r2  # attained at the origin

    def radius(self) -> float:
        return float(np.sqrt(self.r2))


def bregman(phi: MirrorMap, x, y) -> float:
    """Bregman divergence Phi(x) - Phi(y) - <grad Phi(y), x - y>."""
    # value and grad validate both points
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    return float(phi.value(xv) - phi.value(yv) - phi.grad(yv) @ (xv - yv))


def bregman_project(domain: ConvexDomain, phi: MirrorMap, zeta) -> np.ndarray:
    """Unique Bregman-divergence minimizer over the domain, seen from zeta.

    Uses a closed form when the map provides one (Euclidean projection for the
    quadratic map, normalization for entropy on the simplex) and an interior
    Newton solve otherwise.
    """
    z = phi._require(zeta)
    closed = phi.closed_projection(domain, z)
    if closed is not None:
        return closed

    # minimize Phi(x) - <grad Phi(zeta), x> over the domain
    target = phi.grad(z)
    from .surrogate import SolveFailure, minimize_smooth  # local import avoids a cycle

    try:
        return minimize_smooth(
            domain=domain,
            fun=lambda x: phi.value(x) - float(target @ x),
            grad=lambda x: phi.grad(x) - target,
            hess=phi.hess,
            x0=phi.pull_inside(domain.project(z)),
            pull_inside=phi.pull_inside,
        )
    except SolveFailure as exc:
        raise ProjectionFailed(str(exc)) from exc


__all__ = [
    "BallMap",
    "MirrorError",
    "MirrorMap",
    "NegEntropyMap",
    "OutsideMirrorDomain",
    "ProjectionFailed",
    "QuadraticMap",
    "bregman",
    "bregman_project",
]
