"""Problem builders for mirror descent, mirror prox and Newton's method.

Each builder returns a `SurrogateProblem` whose inner minimization reproduces
the textbook update, together with whatever analytic curvature the scheme
admits at a double fixed point.  Every mirror step, the descent step and both
Mirror Prox steps, is the mirror map's own `MirrorMap.step`.
"""

from __future__ import annotations

import warnings

import numpy as np

from .domains import ConvexDomain, FullSpace
from .errors import SurroError
from .mirror_maps import MirrorMap
from .objectives import Objective
from .surrogate import SurrogateProblem, inner_minimize


def _check_compat(f: Objective, phi: MirrorMap, eta: float, domain: ConvexDomain):
    if not eta > 0:
        raise SurroError("step size eta must be positive")
    if not (f.q == phi.q == domain.q):
        raise SurroError(
            f"dimension mismatch: objective {f.q}, mirror map {phi.q}, domain {domain.q}"
        )
    # the surrogate is +inf off the map's open domain, so the feasible set must meet it
    if not phi.in_domain(domain.interior_point()):
        raise SurroError("the feasible set does not meet the mirror-map domain")


def _mirror_problem(f: Objective, phi: MirrorMap, eta: float, domain: ConvexDomain, at,
                    **fields) -> SurrogateProblem:
    """Surrogate eta grad f(at(theta))' u + D_Phi(u, theta), with hess22 = Hess Phi(u).

    The gradient is taken at at(theta): theta for mirror descent, the memoized
    half-step for mirror prox.  The step is the map's own, phi.step, and Q and
    grad2 are the map's surrogate at that gradient, so Q is +inf off the map's
    domain.
    """

    def surrogate(theta):
        return phi.surrogate(theta, eta, f.grad(at(theta)))

    return SurrogateProblem(
        domain=domain,
        eval_q=lambda theta, u: surrogate(theta)[0](u),
        grad2=lambda theta, u: surrogate(theta)[1](u),
        hess22=lambda theta, u: phi.hess(u),
        closed_form_step=lambda theta: phi.step(domain, theta, eta, f.grad(at(theta))),
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
        raise SurroError(f"dimension mismatch: objective {f.q}, domain {dom.q}")

    def newton_point(theta):
        th = np.asarray(theta, dtype=float)
        h = f.hess(th)
        try:
            dx = np.linalg.solve(h, -f.grad(th))
        except np.linalg.LinAlgError as exc:
            raise SurroError(f"Hessian is singular at {th}") from exc
        if not np.all(np.isfinite(dx)):
            raise SurroError(f"Hessian solve produced non-finite step at {th}")
        return th + dx

    def eval_q(theta, u):
        d = np.asarray(u, dtype=float) - newton_point(theta)
        return 0.5 * float(d @ d)

    def grad2(theta, u):
        return np.asarray(u, dtype=float) - newton_point(theta)

    def hess22(theta, u):
        return np.eye(f.q)

    return SurrogateProblem(
        domain=dom,
        eval_q=eval_q,
        grad2=grad2,
        hess22=hess22,
        closed_form_step=lambda theta: dom.project(newton_point(theta)),
        label="newton",
    )
