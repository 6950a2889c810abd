"""Mirror maps and Bregman machinery.

Three maps are shipped: the quadratic map (plain Euclidean geometry), negative
entropy on the positive orthant (simplex geometry) and a barrier-style map on
an open ball whose gradient diverges at the boundary, suitable for globally
convergent extragradient runs on compact sets.  Each map owns its rules: value
is +inf off its open domain, and step is its mirror step, argmin over a domain
of eta g'u + D_Phi(u, theta): closed_step where the map has a closed form,
otherwise one numeric solve on the surrogate.  Mirror descent, both Mirror Prox
steps and bregman_project (the step with g = 0) all call step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import Box, ConvexDomain, Simplex, as_vector
from .errors import SurroError
from .linalg import all_finite
from .surrogate import minimize_smooth


class MirrorMap:
    """Strictly convex map with value/grad/hess callables on an open domain.

    A map implements value, grad, hess and in_domain, and optionally
    closed_step.  value is +inf off the domain, so the numeric step refuses
    every trial point there; grad and hess raise SurroError.
    """

    q: int

    def value(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def hess(self, x) -> np.ndarray:
        raise NotImplementedError

    def in_domain(self, x) -> bool:
        """Membership in the open domain: the one test of a map point.

        Every NaN or infinite point is rejected, without raising, so value and
        _require, which grad and hess call, have no finiteness test of their own.
        """
        raise NotImplementedError

    def strong_convexity(self, domain: ConvexDomain) -> float | None:
        """Analytic lower bound on the Hessian spectrum over the domain, if known."""
        return None

    def closed_step(self, domain: ConvexDomain, theta, eta: float, g) -> np.ndarray | None:
        """argmin over the domain of eta g'u + D_Phi(u, theta) in closed form, or None."""
        return None

    def surrogate(self, theta, eta: float, g):
        """(fun, grad) of u -> eta g'u + D_Phi(u, theta), the objective of the mirror step.

        eta g, Phi(theta) and grad Phi(theta) are computed once, here; fun is
        +inf off the map's domain through value.
        """
        th = as_vector(theta, self.q)
        eta_g, phi_theta, dphi_theta = eta * g, self.value(th), self.grad(th)

        def fun(u):
            uv = as_vector(u, self.q)
            return eta * float(g @ uv) + float(self.value(uv) - phi_theta - dphi_theta @ (uv - th))

        def grad(u):
            return eta_g + self.grad(u) - dphi_theta

        return fun, grad

    def step(self, domain: ConvexDomain, theta, eta: float, g) -> np.ndarray:
        """argmin over the domain of eta g'u + D_Phi(u, theta): the one mirror step.

        closed_step when the map has one on this domain; otherwise a Newton
        solve from theta on the surrogate, which raises SolveFailure if it fails.
        """
        closed = self.closed_step(domain, theta, eta, g)
        if closed is not None:
            return closed
        fun, grad = self.surrogate(theta, eta, g)
        return minimize_smooth(domain=domain, fun=fun, grad=grad, hess=self.hess, x0=theta)

    def _require(self, x) -> np.ndarray:
        v = as_vector(x, self.q)
        if not self.in_domain(v):
            raise SurroError(f"point {v} is outside the mirror-map domain")
        return v


@dataclass(frozen=True)
class QuadraticMap(MirrorMap):
    """Phi(x) = x'x / 2 on all of R^q; Bregman divergence is half squared distance."""

    q: int

    def value(self, x):
        v = as_vector(x, self.q)
        return 0.5 * float(v.dot(v)) if self.in_domain(v) else math.inf

    def grad(self, x):
        return self._require(x).copy()

    def hess(self, x):
        self._require(x)
        return np.eye(self.q)

    def in_domain(self, x):
        return all_finite(np.atleast_1d(x))

    def strong_convexity(self, domain):
        return 1.0

    def closed_step(self, domain, theta, eta, g):
        return domain.project(theta - eta * g)


@dataclass(frozen=True)
class NegEntropyMap(MirrorMap):
    """Phi(x) = sum x_i log x_i on the open positive orthant."""

    q: int

    def value(self, x):
        v = as_vector(x, self.q)
        return float((v * np.log(v)).sum()) if self.in_domain(v) else math.inf

    def grad(self, x):
        v = self._require(x)
        return 1.0 + np.log(v)

    def hess(self, x):
        v = self._require(x)
        return np.diag(1.0 / v)

    def in_domain(self, x):
        return all(0.0 < a < math.inf for a in np.atleast_1d(x).tolist())

    def strong_convexity(self, domain):
        if isinstance(domain, Simplex):
            return 1.0  # coordinates are <= 1, so 1/x_i >= 1
        if isinstance(domain, Box) and np.all(domain.lower > 0):
            return float(1.0 / np.max(domain.upper))
        return None

    def closed_step(self, domain, theta, eta, g):
        if not isinstance(domain, Simplex):
            return None
        # multiplicative weights; the shift leaves the normalization unchanged
        z = theta * np.exp(-eta * (g - np.min(g)))
        out = z / float(z.sum())  # exact entropy projection of a positive vector
        if out.min() < domain.face_eps:
            # x_i = max(face_eps, c z_i) with c fixing the sum: the top k
            # coordinates stay free for the largest k whose c_k z_(k) clears the bound
            eps, u = domain.face_eps, np.sort(z)[::-1]
            ks = np.arange(1, self.q + 1)
            c = (1.0 - (self.q - ks) * eps) / np.cumsum(u)
            k = int(ks[c * u > eps][-1])
            out = np.maximum(eps, c[k - 1] * z)
        return out


@dataclass(frozen=True)
class BallMap(MirrorMap):
    """Phi(x) = |x|^2 / (r2 - |x|^2) on the open ball of squared radius r2.

    The gradient norm diverges at the boundary, so Bregman steps can never
    leave the ball regardless of the step size.  value, grad and hess check a
    point with one squared norm s = x'x, which the formula then reuses: a NaN
    or infinite coordinate makes s NaN or infinite, so `s < r2` also rejects
    non-finite points, there and in in_domain.
    """

    q: int
    r2: float

    def __post_init__(self):
        if not self.r2 > 0:
            raise SurroError("squared radius must be positive")

    def _point(self, x) -> tuple[np.ndarray, float]:
        """The point as a length-q vector and its squared norm; raises outside the ball."""
        v = as_vector(x, self.q)
        s = float(v.dot(v))
        if not s < self.r2:
            raise SurroError(f"point {v} is outside the mirror-map domain")
        return v, s

    def _require(self, x):
        return self._point(x)[0]

    def value(self, x):
        v = as_vector(x, self.q)
        s = float(v.dot(v))
        return s / (self.r2 - s) if s < self.r2 else math.inf

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
        return float(v.dot(v)) < self.r2

    def strong_convexity(self, domain):
        return 2.0 / self.r2  # attained at the origin


def bregman(phi: MirrorMap, x, y) -> float:
    """Bregman divergence Phi(x) - Phi(y) - <grad Phi(y), x - y>."""
    # both points are checked, so a point off the domain raises, never returns inf or NaN
    xv, yv = phi._require(x), phi._require(y)
    return float(phi.value(xv) - phi.value(yv) - phi.grad(yv) @ (xv - yv))


def bregman_project(domain: ConvexDomain, phi: MirrorMap, zeta) -> np.ndarray:
    """Unique Bregman-divergence minimizer over the domain, seen from zeta.

    The map's step with g = 0: a closed form where the map has one (Euclidean
    projection for the quadratic map, normalization for entropy on the
    simplex), an interior Newton solve on D_Phi(., zeta) otherwise.
    """
    return phi.step(domain, phi._require(zeta), 0.0, np.zeros(phi.q))


__all__ = [
    "BallMap",
    "MirrorMap",
    "NegEntropyMap",
    "QuadraticMap",
    "bregman",
    "bregman_project",
]
