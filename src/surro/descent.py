"""Problem builders for mirror descent, mirror prox and Newton's method.

Each builder returns a `SurrogateProblem` whose inner minimization reproduces
the textbook update, together with whatever analytic curvature the scheme
admits at a double fixed point.
"""

from __future__ import annotations

import warnings

import numpy as np

from .domains import ConvexDomain, FullSpace, as_vector
from .errors import SurroError
from .mirror_maps import MirrorError, MirrorMap, NegEntropyMap, QuadraticMap, extended_value
from .objectives import Objective
from .surrogate import SurrogateProblem, inner_minimize


class BuilderError(SurroError):
    pass


class IncompatibleDomain(BuilderError):
    pass


class SingularHessian(BuilderError):
    pass


def _check_compat(f: Objective, phi: MirrorMap, eta: float, domain: ConvexDomain):
    if not eta > 0:
        raise BuilderError("step size eta must be positive")
    if not (f.q == phi.q == domain.q):
        raise IncompatibleDomain(
            f"dimension mismatch: objective {f.q}, mirror map {phi.q}, domain {domain.q}"
        )
    # the surrogate is +inf off the map's open domain, so the feasible set must meet it
    if not phi.in_domain(domain.interior_point()):
        raise IncompatibleDomain("the feasible set does not meet the mirror-map domain")


def _mirror_problem(f: Objective, phi: MirrorMap, eta: float, domain: ConvexDomain, at,
                    **fields) -> SurrogateProblem:
    """Surrogate eta grad f(at(theta))' u + D_Phi(u, theta), with hess22 = Hess Phi(u).

    The gradient is taken at at(theta): theta for mirror descent, the memoized
    half-step for mirror prox.  Closed-form steps: projected gradient for the
    quadratic map, multiplicative weights for entropy on the simplex.

    An inner solve evaluates Q(theta, .) many times at one theta, so the
    theta-only terms (grad f(at(theta)), Phi(theta), grad Phi(theta)) are kept
    for the last theta seen, keyed by its bytes; eval_q and grad2 then map
    only u.  Each value is computed by the same expression, in the same
    order, as bregman(phi, u, theta) and the unmemoized gradient.
    """
    # (theta bytes, eta grad f(at(theta)), grad f(at(theta)), Phi(theta), grad Phi(theta))
    anchor = (None,)

    def anchored(theta):
        nonlocal anchor
        th = as_vector(theta, phi.q, MirrorError)
        key = th.tobytes()
        memo = anchor
        if memo[0] != key:
            g = f.grad(at(theta))
            memo = anchor = (key, eta * g, g, phi.value(th), phi.grad(th))
        return th, memo

    def eval_q(theta, u):
        th, (_, _, g, phi_theta, dphi_theta) = anchored(theta)
        uv = as_vector(u, phi.q, MirrorError)
        phi_u = extended_value(phi, uv)  # +inf off the map's domain makes Q +inf there
        return eta * float(g @ uv) + float(phi_u - phi_theta - dphi_theta @ (uv - th))

    def grad2(theta, u):
        _, (_, eta_g, _, _, dphi_theta) = anchored(theta)
        return eta_g + phi.grad(u) - dphi_theta

    def hess22(theta, u):
        return phi.hess(u)

    closed = None
    uniform = np.full(phi.q, 1.0 / phi.q)
    if isinstance(phi, QuadraticMap):
        def closed(theta):
            return domain.project(theta - eta * f.grad(at(theta)))
    elif isinstance(phi, NegEntropyMap) and phi.closed_projection(domain, uniform) is not None:
        def closed(theta):
            g = f.grad(at(theta))
            # multiplicative weights; the shift leaves the normalization unchanged
            return phi.closed_projection(domain, theta * np.exp(-eta * (g - np.min(g))))

    return SurrogateProblem(
        q=f.q,
        domain=domain,
        eval_q=eval_q,
        grad2=grad2,
        hess22=hess22,
        closed_form_step=closed,
        **fields,
    )


def mirror_descent_problem(
    f: Objective, phi: MirrorMap, eta: float, domain: ConvexDomain
) -> SurrogateProblem:
    """Surrogate for one mirror-descent step: eta grad f(theta)' u + D_Phi(u, theta).

    Carries analytic hess22 = Hessian of Phi at u and hess12 = eta Hess f(theta)
    - Hess Phi(theta).
    """
    _check_compat(f, phi, eta, domain)
    return _mirror_problem(
        f, phi, eta, domain, lambda theta: theta,
        hess12=lambda theta, u: eta * f.hess(theta) - phi.hess(theta),
        label=f"mirror_descent(eta={eta:g})",
    )


def audit_prox_hypotheses(f: Objective, phi: MirrorMap, eta: float, domain: ConvexDomain):
    """Return (gamma, beta) and warn when eta is not below gamma/beta.

    gamma is the mirror map's strong-convexity constant on the domain and beta
    the objective's declared smoothness constant; the extragradient scheme is
    only guaranteed to contract for eta < gamma/beta.  Either may be None
    (unknown), and then nothing is checked.
    """
    gamma = phi.strong_convexity(domain)
    beta = f.beta
    if gamma is not None and beta is not None and not eta < gamma / beta:
        warnings.warn(
            f"step size eta={eta:g} is not below gamma/beta={gamma / beta:g}; "
            "global convergence of the extragradient scheme is not guaranteed",
            stacklevel=3,
        )
    return gamma, beta


class _MemoStep:
    """Memoized half-step map; the prox surrogate queries it repeatedly."""

    def __init__(self, problem: SurrogateProblem):
        self.problem = problem
        self.cache: dict[bytes, np.ndarray] = {}

    def __call__(self, theta) -> np.ndarray:
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        key = th.tobytes()
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        out = inner_minimize(self.problem, th)
        if len(self.cache) > 4096:
            self.cache.clear()
        self.cache[key] = out
        return out


def mirror_prox_problem(
    f: Objective, phi: MirrorMap, eta: float, domain: ConvexDomain
) -> SurrogateProblem:
    """Extragradient surrogate: gradient evaluated at the mirror-descent half-step.

    The half-step zeta = argmin eta grad f(theta)'u + D(u, theta) is one
    mirror-descent step, memoized since the prox surrogate queries it repeatedly.
    """
    _check_compat(f, phi, eta, domain)
    half_step = _MemoStep(_mirror_problem(f, phi, eta, domain, lambda theta: theta))
    gamma, beta = audit_prox_hypotheses(f, phi, eta, domain)
    return _mirror_problem(
        f, phi, eta, domain, half_step,
        label=f"mirror_prox(eta={eta:g}, gamma={gamma if gamma is not None else 'n/a'}, "
        f"beta={beta if beta is not None else 'n/a'})",
    )


def newton_problem(f: Objective, domain: ConvexDomain | None = None) -> SurrogateProblem:
    """Newton's method as surrogate minimization of half a squared distance.

    Q(theta, u) = |u - theta + Hess f(theta)^{-1} grad f(theta)|^2 / 2.  Its
    minimizer over the domain, the closed-form step, is the Euclidean
    projection of the Newton point onto the domain.
    """
    dom = domain or FullSpace(f.q)
    if dom.q != f.q:
        raise IncompatibleDomain(f"dimension mismatch: objective {f.q}, domain {dom.q}")

    def newton_point(theta):
        th = np.asarray(theta, dtype=float)
        h = f.hess(th)
        try:
            dx = np.linalg.solve(h, -f.grad(th))
        except np.linalg.LinAlgError as exc:
            raise SingularHessian(f"Hessian is singular at {th}") from exc
        if not np.all(np.isfinite(dx)):
            raise SingularHessian(f"Hessian solve produced non-finite step at {th}")
        return th + dx

    def eval_q(theta, u):
        d = np.asarray(u, dtype=float) - newton_point(theta)
        return 0.5 * float(d @ d)

    def grad2(theta, u):
        return np.asarray(u, dtype=float) - newton_point(theta)

    def hess22(theta, u):
        return np.eye(f.q)

    return SurrogateProblem(
        q=f.q,
        domain=dom,
        eval_q=eval_q,
        grad2=grad2,
        hess22=hess22,
        closed_form_step=lambda theta: dom.project(newton_point(theta)),
        label="newton",
    )
