"""Latent-variable models and their EM-style surrogates.

The workhorse is a scalar Gaussian location model: the latent variable is
X ~ N(theta, sigma_x2) and the observation is Y = X + noise with variance
sigma_y2.  Every conditional expectation is then closed-form, the EM map is
affine, and the Fisher informations are analytic, which makes the model an
exact oracle for rate verification.  A two-component mixture ships alongside
as a demonstration model whose curvature is only probed numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import FullSpace
from .errors import SurroError
from .surrogate import SurrogateProblem

QUAD_START_NODES = 20
QUAD_MAX_NODES = 200
QUAD_TOL = 1e-10


class ModelError(SurroError):
    pass


class EmptyData(ModelError):
    pass


class QuadratureFailure(ModelError):
    pass


@dataclass(frozen=True)
class GaussianLatentModel:
    """X ~ N(theta, sigma_x2) observed through Y = X + N(0, sigma_y2)."""

    sigma_x2: float
    sigma_y2: float
    theta_star: float

    def __post_init__(self):
        if not (self.sigma_x2 > 0 and self.sigma_y2 > 0):
            raise ModelError("variances must be positive")

    @property
    def marginal_var(self) -> float:
        """Variance of Y."""
        return self.sigma_x2 + self.sigma_y2

    @property
    def shrinkage(self) -> float:
        """EM contraction factor sigma_y2 / (sigma_x2 + sigma_y2)."""
        return self.sigma_y2 / self.marginal_var

    @property
    def posterior_var(self) -> float:
        return self.sigma_x2 * self.sigma_y2 / self.marginal_var

    def observed_loglik(self, theta: float, y) -> float:
        s = self.marginal_var
        r = np.asarray(y, dtype=float) - theta
        return float(np.mean(-0.5 * r * r / s - 0.5 * math.log(2.0 * math.pi * s)))

    def sample_y(self, k: int, rng) -> np.ndarray:
        return self.theta_star + math.sqrt(self.marginal_var) * rng.gaussian(k)

    # hooks shared with the mixture model so sweeps can treat them uniformly
    def sample_problem(self, data) -> SurrogateProblem:
        return em_sample_problem(self, data)

    def population_rate(self) -> float:
        return self.shrinkage

    def default_theta0(self) -> np.ndarray:
        return np.array([self.theta_star + 1.0])


def fisher_information(model: GaussianLatentModel):
    """Analytic informations of the pair (X, Y), of Y, and of X given Y.

    Returned as 1x1 matrices; the first equals the sum of the other two.
    """
    i_xy = np.array([[1.0 / model.sigma_x2]])
    i_y = np.array([[1.0 / model.marginal_var]])
    return i_xy, i_y, i_xy - i_y


def em_population_problem(model: GaussianLatentModel) -> SurrogateProblem:
    """Infinite-data EM surrogate; all integrals are closed-form for this model.

    The minimization map is the affine contraction
    theta -> theta_star + shrinkage * (theta - theta_star).
    """
    sx2, sy2 = model.sigma_x2, model.sigma_y2
    s = model.marginal_var
    w = model.shrinkage
    wx = sx2 / s
    v = model.posterior_var
    star = model.theta_star
    const = (
        (v + wx * wx * s) / (2.0 * sx2)
        + (v + w * w * s) / (2.0 * sy2)
        + 0.5 * math.log(2.0 * math.pi * sx2)
        + 0.5 * math.log(2.0 * math.pi * sy2)
    )

    def mean_post(theta):
        return star + w * (theta - star)

    def eval_q(theta, u):
        t, up = float(theta[0]), float(u[0])
        return (
            const
            + (mean_post(t) - up) ** 2 / (2.0 * sx2)
            + w * w * (t - star) ** 2 / (2.0 * sy2)
        )

    def grad2(theta, u):
        return np.array([(float(u[0]) - mean_post(float(theta[0]))) / sx2])

    def lyapunov(theta):
        t = float(theta[0])
        return (t - star) ** 2 / (2.0 * s) + 0.5 * math.log(2.0 * math.pi * s) + 0.5

    return SurrogateProblem(
        domain=FullSpace(1),
        eval_q=eval_q,
        grad2=grad2,
        hess22=lambda theta, u: np.array([[1.0 / sx2]]),
        hess12=lambda theta, u: np.array([[-w / sx2]]),
        closed_form_step=lambda theta: np.array([mean_post(float(theta[0]))]),
        lyapunov=lyapunov,
        label="em_population",
    )


def em_sample_problem(model: GaussianLatentModel, data) -> SurrogateProblem:
    """Finite-sample EM surrogate for observations Y_1..Y_k.

    The update is the posterior-mean average
    theta -> (sigma_y2 * theta + sigma_x2 * mean(Y)) / (sigma_x2 + sigma_y2),
    and the negative observed log-likelihood is attached as the Lyapunov
    diagnostic (EM never decreases the likelihood).
    """
    y = np.atleast_1d(np.asarray(data, dtype=float))
    if y.size == 0:
        raise EmptyData("at least one observation is required")
    sx2, sy2 = model.sigma_x2, model.sigma_y2
    s = model.marginal_var
    w = model.shrinkage
    wx = sx2 / s
    v = model.posterior_var
    y_bar = float(np.mean(y))
    log_norm = 0.5 * math.log(2.0 * math.pi * sx2) + 0.5 * math.log(2.0 * math.pi * sy2)

    def eval_q(theta, u):
        t, up = float(theta[0]), float(u[0])
        m = t + wx * (y - t)
        part_x = (v + (m - up) ** 2) / (2.0 * sx2)
        part_y = (v + (y - m) ** 2) / (2.0 * sy2)
        return float(np.mean(part_x + part_y)) + log_norm

    def grad2(theta, u):
        t = float(theta[0])
        m_bar = t + wx * (y_bar - t)
        return np.array([(float(u[0]) - m_bar) / sx2])

    def step(theta):
        t = float(theta[0])
        return np.array([(sy2 * t + sx2 * y_bar) / s])

    return SurrogateProblem(
        domain=FullSpace(1),
        eval_q=eval_q,
        grad2=grad2,
        hess22=lambda theta, u: np.array([[1.0 / sx2]]),
        hess12=lambda theta, u: np.array([[-w / sx2]]),
        closed_form_step=step,
        lyapunov=lambda theta: -model.observed_loglik(float(theta[0]), y),
        label=f"em_sample(k={y.size})",
    )


@dataclass(frozen=True)
class AlphaIndex:
    """Concave reweighting index for the divergence family replacing the log.

    alpha = 0 recovers the logarithm; alpha = 1 is excluded.
    """

    alpha: float

    def __post_init__(self):
        if self.alpha == 1.0:
            raise ModelError("alpha = 1 is excluded")

    def f(self, x):
        x = np.asarray(x, dtype=float)
        if self.alpha == 0.0:
            return np.log(x)
        return (1.0 - x**self.alpha) / (self.alpha * (self.alpha - 1.0))


class _GaussHermite:
    """Fixed-node Gaussian expectation; the node count is frozen per problem.

    Freezing keeps every surrogate evaluation a smooth, deterministic function
    of its arguments, which finite differencing and byte-reproducibility both
    rely on.
    """

    def __init__(self, n: int):
        self.n = n
        self.nodes, weights = np.polynomial.hermite_e.hermegauss(n)
        self.weights = weights / math.sqrt(2.0 * math.pi)

    def expect(self, centers, scale, integrand):
        """Row-wise E[g(X)] for X ~ N(center_i, scale^2)."""
        x = np.atleast_1d(centers)[:, None] + scale * self.nodes[None, :]
        return np.asarray(integrand(x)) @ self.weights


def alpha_em_problem(
    model: GaussianLatentModel,
    alpha: float,
    mode: str = "population",
    data=None,
) -> SurrogateProblem:
    """EM variant with the log replaced by the concave alpha family (alpha != 1).

    The surrogate integral has no closed form for general alpha, so values and
    derivatives are computed by Gauss-Hermite quadrature centered at the
    relevant posterior means; the node count is chosen adaptively up front
    (doubling from 20 until two refinements agree to 1e-10) and then frozen.
    """
    a_idx = AlphaIndex(float(alpha))
    al = a_idx.alpha
    sx2 = model.sigma_x2
    wx = sx2 / model.marginal_var
    star = model.theta_star

    if mode == "population":
        # the mixed density of X (posterior at theta, data drawn at theta_star)
        # collapses to N(theta + wx (theta_star - theta), sigma_x2)
        def centers(theta):
            return np.array([theta + wx * (star - theta)])

        cell_weights = np.array([1.0])
        scale = math.sqrt(sx2)
        theta_ref = star
        lyapunov = em_population_problem(model).lyapunov
    elif mode == "sample":
        if data is None:
            raise EmptyData("sample mode requires observations")
        y = np.atleast_1d(np.asarray(data, dtype=float))
        if y.size == 0:
            raise EmptyData("at least one observation is required")

        def centers(theta):
            return theta + wx * (y - theta)

        cell_weights = np.full(y.size, 1.0 / y.size)
        scale = math.sqrt(model.posterior_var)
        theta_ref = float(np.mean(y))
        lyapunov = lambda theta: -model.observed_loglik(float(theta[0]), data)
    else:
        raise ModelError(f"unknown mode {mode!r}")

    def expectation(rule: _GaussHermite, theta, u, integrand) -> float:
        """Cell-weighted E[integrand(log_ratio, x - u)] over the posterior of X at theta."""
        t, up = float(theta[0]), float(u[0])

        def at_nodes(x):
            # log of the joint-density ratio between parameters u and t; the
            # observation terms cancel, leaving an affine function of x
            log_ratio = (up - t) / sx2 * x - (up * up - t * t) / (2.0 * sx2)
            return integrand(log_ratio, x - up)

        return float(cell_weights @ np.atleast_1d(rule.expect(centers(t), scale, at_nodes)))

    def value(rule, theta, u):
        return -expectation(rule, theta, u, lambda lr, d: a_idx.f(np.exp(lr)))

    # adapt the node count on probe pairs, each fine rule the next coarse one, then freeze it
    offset = 0.5 * (1.0 + abs(theta_ref))
    probes = [
        (np.array([theta_ref + offset]), np.array([theta_ref - 0.5 * offset])),
        (np.array([theta_ref - offset]), np.array([theta_ref + offset])),
    ]
    coarse = _GaussHermite(QUAD_START_NODES)
    while True:
        rule = _GaussHermite(min(2 * coarse.n, QUAD_MAX_NODES))
        gap = max(
            abs(value(coarse, t, u) - value(rule, t, u)) / (1.0 + abs(value(rule, t, u)))
            for t, u in probes
        )
        if gap < QUAD_TOL:
            break
        if rule.n >= QUAD_MAX_NODES:
            raise QuadratureFailure(
                f"tolerance {QUAD_TOL:g} not reached at {QUAD_MAX_NODES} nodes (gap {gap:.3e})"
            )
        coarse = rule
    denom = (1.0 - al) * sx2

    return SurrogateProblem(
        domain=FullSpace(1),
        eval_q=lambda theta, u: value(rule, theta, u),
        grad2=lambda theta, u: np.array(
            [-expectation(rule, theta, u, lambda lr, d: np.exp(al * lr) * d) / denom]
        ),
        hess22=lambda theta, u: np.array([[-expectation(
            rule, theta, u, lambda lr, d: np.exp(al * lr) * (al * d * d / sx2 - 1.0)
        ) / denom]]),
        lyapunov=lyapunov,
        label=f"alpha_em(alpha={al:g}, mode={mode})",
    )


@dataclass(frozen=True)
class TwoComponentMixture:
    """Symmetric mixture (1/2) N(theta, 1) + (1/2) N(-theta, 1), parametrized by theta > 0.

    Ships as a demonstration model: its sample curvature genuinely fluctuates
    with the data, so sample rates only approach the infinite-data rate as the
    sample grows.  No analytic curvature is exposed.
    """

    theta_star: float

    def __post_init__(self):
        if not self.theta_star > 0:
            raise ModelError("separation theta_star must be positive")

    def sample_y(self, k: int, rng) -> np.ndarray:
        signs = np.where(rng.uniform(k) < 0.5, -1.0, 1.0)
        return signs * self.theta_star + rng.gaussian(k)

    def sample_problem(self, data) -> SurrogateProblem:
        y = np.atleast_1d(np.asarray(data, dtype=float))
        if y.size == 0:
            raise EmptyData("at least one observation is required")
        const = math.log(2.0) + 0.5 * math.log(2.0 * math.pi)

        def eval_q(theta, u):
            t, up = float(theta[0]), float(u[0])
            w_plus = 0.5 * (1.0 + np.tanh(t * y))
            return (
                float(np.mean(w_plus * (y - up) ** 2 + (1.0 - w_plus) * (y + up) ** 2)) / 2.0
                + const
            )

        def responsibility_mean(t):
            return float(np.mean(np.tanh(t * y) * y))

        def grad2(theta, u):
            return np.array([float(u[0]) - responsibility_mean(float(theta[0]))])

        def lyapunov(theta):
            t = float(theta[0])
            log_mix = np.logaddexp(-0.5 * (y - t) ** 2, -0.5 * (y + t) ** 2)
            return -float(np.mean(log_mix)) + const

        return SurrogateProblem(
            domain=FullSpace(1),
            eval_q=eval_q,
            grad2=grad2,
            hess22=lambda theta, u: np.array([[1.0]]),
            closed_form_step=lambda theta: np.array([responsibility_mean(float(theta[0]))]),
            lyapunov=lyapunov,
            label=f"mixture_em(k={y.size})",
        )

    def population_rate(self) -> float:
        """Infinite-data rate E[Y^2 sech^2(theta* Y)], computed by quadrature."""
        rule = _GaussHermite(QUAD_MAX_NODES)
        with np.errstate(over="ignore"):  # where cosh overflows, sech^2 takes its limit 0
            val = rule.expect(np.array([self.theta_star]), 1.0,
                              lambda x: (x / np.cosh(self.theta_star * x)) ** 2)
        return float(val[0])

    def default_theta0(self) -> np.ndarray:
        return np.array([self.theta_star + 0.5])
