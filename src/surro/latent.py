"""Latent-variable models and their EM-style surrogates.

The workhorse is a scalar Gaussian location model: the latent variable is
X ~ N(theta, sigma_x2) and the observation is Y = X + noise with variance
sigma_y2.  Every conditional expectation is then closed-form, the EM map is
affine, and the Fisher informations are analytic, which makes the model an
exact oracle for rate verification.  A two-component mixture ships alongside
as a demonstration model whose sample curvature fluctuates with the data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domains import FullSpace
from .errors import SurroError
from .rng import CounterRNG
from .surrogate import SurrogateProblem


@dataclass(frozen=True)
class GaussianLatentModel:
    """X ~ N(theta, sigma_x2) observed through Y = X + N(0, sigma_y2)."""

    sigma_x2: float
    sigma_y2: float
    theta_star: float

    def __post_init__(self):
        if not (self.sigma_x2 > 0 and self.sigma_y2 > 0):
            raise SurroError("variances must be positive")

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


def draw_data(model, k: int, seed: int = 0) -> np.ndarray:
    """k observations drawn from the model on the counter stream (seed, k)."""
    return model.sample_y(k, CounterRNG((seed, k)))


def fisher_information(model: GaussianLatentModel):
    """Analytic informations of the pair (X, Y), of Y, and of X given Y.

    Returned as 1x1 matrices; the first equals the sum of the other two.
    """
    i_xy = np.array([[1.0 / model.sigma_x2]])
    i_y = np.array([[1.0 / model.marginal_var]])
    # 1/sx2 - 1/(sx2 + sy2) without the cancellation of that difference
    i_x_given_y = np.array([[model.sigma_y2 / (model.sigma_x2 * model.marginal_var)]])
    return i_xy, i_y, i_x_given_y


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


def _observations(data) -> np.ndarray:
    """data as a float vector; SurroError when it holds no observation."""
    y = np.atleast_1d(np.asarray(data, dtype=float))
    if y.size == 0:
        raise SurroError("at least one observation is required")
    return y


def em_sample_problem(model: GaussianLatentModel, data) -> SurrogateProblem:
    """Finite-sample EM surrogate for observations Y_1..Y_k.

    The update is the posterior-mean average
    theta -> (sigma_y2 * theta + sigma_x2 * mean(Y)) / (sigma_x2 + sigma_y2),
    and the negative observed log-likelihood is attached as the Lyapunov
    diagnostic (EM never decreases the likelihood).
    """
    y = _observations(data)
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


def alpha_em_problem(model: GaussianLatentModel, alpha: float, data=None) -> SurrogateProblem:
    """EM variant with the log replaced by the concave alpha family (alpha != 1).

    The log-ratio L = a x + b of the joint densities at u and theta is affine in
    the latent x, and x is Gaussian in each cell: X ~ N(c, s2), with one cell at
    theta_star without data (population mode) and one per observation with it
    (sample mode).  So every integrand is a tilted log-normal moment (Matsuyama,
    IEEE Trans. Inf. Theory 2003): E[e^{alpha L}] = M = e^E with E = alpha (a c
    + b) + alpha^2 a^2 s2 / 2, and under the tilt X ~ N(c + alpha a s2, s2).
    Value, grad2, hess22 and hess12 are these closed forms.  a c + b is written
    a ((c - theta) - (u - theta) / 2), whose differences are exact near the
    diagonal, and the value takes expm1(E): there the surrogate gap is
    O(|u - theta|^2), and u^2 - theta^2 or exp(E) - 1 would lose it to rounding.
    """
    al = float(alpha)
    if al == 1.0:
        raise SurroError("alpha = 1 is excluded")
    sx2 = model.sigma_x2
    wx = sx2 / model.marginal_var

    if data is None:
        # the mixed density of X (posterior at theta, data drawn at theta_star)
        # collapses to N(theta + wx (theta_star - theta), sigma_x2)
        mode, cells, s2 = "population", np.array([model.theta_star]), sx2
        lyapunov = em_population_problem(model).lyapunov
    else:
        mode, cells, s2 = "sample", _observations(data), model.posterior_var
        lyapunov = lambda theta: -model.observed_loglik(float(theta[0]), data)
    denom = (1.0 - al) * sx2

    def moments(theta, u):
        """Per cell: a, E[L] = a c + b, the log tilted moment E and the tilted mean of X - u."""
        t, up = float(theta[0]), float(u[0])
        a = (up - t) / sx2
        shift = wx * (cells - t)  # posterior centers c of X at theta, less theta
        mean_lr = a * (shift - 0.5 * (up - t))
        return a, mean_lr, al * mean_lr + 0.5 * (al * a) ** 2 * s2, t + shift + al * a * s2 - up

    def eval_q(theta, u):
        _, mean_lr, e, _ = moments(theta, u)
        if al == 0.0:
            return -float(np.mean(mean_lr))
        return float(np.mean(np.expm1(e))) / (al * (al - 1.0))

    def grad2(theta, u):
        _, _, e, d = moments(theta, u)
        return np.array([-float(np.mean(np.exp(e) * d)) / denom])

    def hess22(theta, u):
        _, _, e, d = moments(theta, u)
        return np.array([[-float(np.mean(np.exp(e) * (al * (d * d + s2) / sx2 - 1.0))) / denom]])

    def hess12(theta, u):
        # the theta-derivative of grad2, through dE/dtheta = -al (wx a + d / sx2)
        # and dd/dtheta = 1 - wx - al s2 / sx2
        a, _, e, d = moments(theta, u)
        slope = 1.0 - wx - al * s2 / sx2 - al * (wx * a + d / sx2) * d
        return np.array([[-float(np.mean(np.exp(e) * slope)) / denom]])

    return SurrogateProblem(
        domain=FullSpace(1),
        eval_q=eval_q,
        grad2=grad2,
        hess22=hess22,
        hess12=hess12,
        lyapunov=lyapunov,
        label=f"alpha_em(alpha={al:g}, mode={mode})",
    )


@functools.cache
def _normal_quadrature(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Hermite rule for E[f(Z)], Z ~ N(0, 1); one build."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n)
    return nodes, weights / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class TwoComponentMixture:
    """Symmetric mixture (1/2) N(theta, 1) + (1/2) N(-theta, 1), parametrized by theta > 0.

    Ships as a demonstration model: its sample curvature genuinely fluctuates
    with the data, so sample rates only approach the infinite-data rate as the
    sample grows.  Both of its curvature blocks are analytic: hess22 is 1 and hess12
    is -mean(y^2 sech^2(theta y)), the sample form of population_rate's integrand.
    """

    theta_star: float

    def __post_init__(self):
        if not self.theta_star > 0:
            raise SurroError("separation theta_star must be positive")

    def sample_y(self, k: int, rng) -> np.ndarray:
        signs = np.where(rng.uniform(k) < 0.5, -1.0, 1.0)
        return signs * self.theta_star + rng.gaussian(k)

    def sample_problem(self, data) -> SurrogateProblem:
        y = _observations(data)
        const = math.log(2.0) + 0.5 * math.log(2.0 * math.pi)

        def eval_q(theta, u):
            t, up = float(theta[0]), float(u[0])
            w_plus = 0.5 * (1.0 + np.tanh(t * y))
            return (
                float(np.mean(w_plus * (y - up) ** 2 + (1.0 - w_plus) * (y + up) ** 2)) / 2.0
                + const
            )

        def responsibility_mean(t):
            # one BLAS dot: no k-length product and no mean dispatch on this EM step
            return float(np.tanh(t * y) @ y) / y.size

        def grad2(theta, u):
            return np.array([float(u[0]) - responsibility_mean(float(theta[0]))])

        def hess12(theta, u):
            # -d/dtheta mean(tanh(theta y) y) = -mean(y^2 sech^2(theta y)), population_rate's
            # integrand; where cosh overflows, sech^2 takes its limit 0
            with np.errstate(over="ignore"):
                return np.array([[-float(np.mean((y / np.cosh(float(theta[0]) * y)) ** 2))]])

        def lyapunov(theta):
            t = float(theta[0])
            log_mix = np.logaddexp(-0.5 * (y - t) ** 2, -0.5 * (y + t) ** 2)
            return -float(np.mean(log_mix)) + const

        return SurrogateProblem(
            domain=FullSpace(1),
            eval_q=eval_q,
            grad2=grad2,
            hess22=lambda theta, u: np.array([[1.0]]),
            hess12=hess12,
            closed_form_step=lambda theta: np.array([responsibility_mean(float(theta[0]))]),
            lyapunov=lyapunov,
            label=f"mixture_em(k={y.size})",
        )

    def population_rate(self) -> float:
        """Infinite-data rate E[Y^2 sech^2(theta* Y)], Y ~ N(theta*, 1), by 200-node
        Gauss-Hermite quadrature."""
        nodes, weights = _normal_quadrature(200)
        y = self.theta_star + nodes[None, :]  # one row: a (1, 200) @ (200,) product
        with np.errstate(over="ignore"):  # where cosh overflows, sech^2 takes its limit 0
            val = ((y / np.cosh(self.theta_star * y)) ** 2) @ weights
        return float(val[0])

    def default_theta0(self) -> np.ndarray:
        return np.array([self.theta_star + 0.5])
