"""Closed-form alpha-EM surrogates against log-normal moment, double-quadrature and
50-digit oracles."""

import math

import mpmath
import numpy as np
import pytest

from surro.errors import SurroError
from surro.latent import (
    GaussianLatentModel,
    alpha_em_problem,
    em_population_problem,
    em_sample_problem,
)
from surro.rates import curvature_at
from surro.rng import CounterRNG

MODEL = GaussianLatentModel(1.0, 1.0, theta_star=1.0)


def _log_ratio_coeffs(model, t, u):
    a = (u - t) / model.sigma_x2
    b = (u * u - t * t) / (2.0 * model.sigma_x2)
    return a, b


def _closed_form_q(model, alpha, t, u, centers, scale2):
    """Log-normal moment oracle: E[r^alpha] over each posterior cell is explicit."""
    a, b = _log_ratio_coeffs(model, t, u)
    moments = np.exp(alpha * (a * centers - b) + 0.5 * alpha**2 * a**2 * scale2)
    if alpha == 0.0:
        return -float(np.mean(a * centers - b))
    return float((np.mean(moments) - 1.0) / (alpha * (alpha - 1.0)))


def _index(alpha, x):
    """The concave family that replaces the log in alpha-EM: log itself at alpha = 0."""
    x = np.asarray(x, dtype=float)
    if alpha == 0.0:
        return np.log(x)
    return (1.0 - x**alpha) / (alpha * (alpha - 1.0))


def test_alpha_index_properties():
    for alpha in (-0.5, 0.0, 0.3, 0.9, 2.0):
        assert _index(alpha, 1.0) == pytest.approx(0.0, abs=1e-15)
        # concavity on the positive axis via second differences
        for x in (0.2, 0.7, 1.5, 4.0):
            h = 1e-4 * x
            second = (_index(alpha, x + h) - 2 * _index(alpha, x) + _index(alpha, x - h)) / h**2
            assert second <= 1e-6
    for data in (None, [1.0]):
        with pytest.raises(SurroError, match="alpha = 1 is excluded"):
            alpha_em_problem(MODEL, 1.0, data=data)


@pytest.mark.parametrize("alpha, model", [
    (0.25, MODEL), (0.5, MODEL), (-0.3, MODEL), (0.75, GaussianLatentModel(1.0, 1.0, 5.0)),
], ids=["0.25", "0.5", "-0.3", "0.75-theta_star-5"])
def test_population_eval_matches_closed_form(alpha, model):
    prob = alpha_em_problem(model, alpha)
    wx = model.sigma_x2 / model.marginal_var
    rng = CounterRNG(60)
    for _ in range(15):
        t = float(model.theta_star + rng.gaussian(1)[0] * 0.5)
        u = float(model.theta_star + rng.gaussian(1)[0] * 0.5)
        centers = np.array([t + wx * (model.theta_star - t)])
        expected = _closed_form_q(model, alpha, t, u, centers, model.sigma_x2)
        got = prob.eval_q(np.array([t]), np.array([u]))
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.25, 0.5])
def test_sample_eval_matches_closed_form(alpha):
    rng = CounterRNG(61)
    data = MODEL.sample_y(9, rng)
    prob = alpha_em_problem(MODEL, alpha, data=data)
    wx = MODEL.sigma_x2 / MODEL.marginal_var
    for _ in range(10):
        t = float(1.0 + rng.gaussian(1)[0] * 0.4)
        u = float(1.0 + rng.gaussian(1)[0] * 0.4)
        centers = t + wx * (data - t)
        expected = _closed_form_q(MODEL, alpha, t, u, centers, MODEL.posterior_var)
        got = prob.eval_q(np.array([t]), np.array([u]))
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-10)


def test_population_eval_matches_double_quadrature_oracle():
    # integrate over the observation first, then the latent posterior, without
    # the single-marginal collapse used by the implementation
    alpha = 0.35
    prob = alpha_em_problem(MODEL, alpha)
    z, w = np.polynomial.hermite_e.hermegauss(120)
    w = w / math.sqrt(2.0 * math.pi)
    wx = MODEL.sigma_x2 / MODEL.marginal_var
    sv = math.sqrt(MODEL.marginal_var)
    pv = math.sqrt(MODEL.posterior_var)

    def double_quad(t, u):
        a, b = _log_ratio_coeffs(MODEL, t, u)
        ys = MODEL.theta_star + sv * z
        centers = t + wx * (ys - t)
        x = centers[:, None] + pv * z[None, :]
        inner = _index(alpha, np.exp(a * x - b)) @ w
        return -float(inner @ w)

    for t, u in ((1.4, 0.9), (0.6, 1.3), (1.05, 1.0)):
        got = prob.eval_q(np.array([t]), np.array([u]))
        assert got == pytest.approx(double_quad(t, u), rel=1e-8, abs=1e-9)


def test_alpha_zero_reduces_to_em_up_to_diagonal_shift():
    # the ratio form subtracts the surrogate's own diagonal value
    prob0 = alpha_em_problem(MODEL, 0.0)
    em = em_population_problem(MODEL)
    rng = CounterRNG(62)
    for _ in range(20):
        t = np.array([1.0 + rng.gaussian(1)[0]])
        u = np.array([1.0 + rng.gaussian(1)[0]])
        expected = em.eval_q(t, u) - em.eval_q(t, t)
        assert prob0.eval_q(t, u) == pytest.approx(expected, abs=1e-10)
        np.testing.assert_allclose(prob0.grad2(t, u), em.grad2(t, u), atol=1e-10)


def test_alpha_zero_sample_mode_matches_sample_em():
    rng = CounterRNG(63)
    data = MODEL.sample_y(7, rng)
    prob0 = alpha_em_problem(MODEL, 0.0, data=data)
    em = em_sample_problem(MODEL, data)
    for _ in range(10):
        t = np.array([1.0 + rng.gaussian(1)[0]])
        u = np.array([1.0 + rng.gaussian(1)[0]])
        expected = em.eval_q(t, u) - em.eval_q(t, t)
        assert prob0.eval_q(t, u) == pytest.approx(expected, abs=1e-10)


def test_alpha_family_converges_linearly_to_the_log_form():
    rng = CounterRNG(64)
    pairs = [
        (np.array([1.0 + rng.gaussian(1)[0] * 0.5]), np.array([1.0 + rng.gaussian(1)[0] * 0.5]))
        for _ in range(25)
    ]
    prob0 = alpha_em_problem(MODEL, 0.0)
    sups = []
    for alpha in (1e-1, 1e-2, 1e-3):
        prob = alpha_em_problem(MODEL, alpha)
        gaps = [
            abs(prob.eval_q(t, u) - prob0.eval_q(t, u)) / (1.0 + abs(prob0.eval_q(t, u)))
            for t, u in pairs
        ]
        sups.append(max(gaps))
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] <= sups[0] / 50.0  # linear-in-alpha scaling


def test_population_curvature_matches_information_formula():
    # both blocks are analytic, so they hold the formula to rounding
    eps = np.finfo(float).eps
    for alpha in (0.25, 0.5, -0.5):
        prob = alpha_em_problem(MODEL, alpha)
        frame = curvature_at(prob, np.array([1.0]))
        i_xy = 1.0
        i_y = 0.5
        assert frame.a_tilde[0, 0] == pytest.approx(i_xy, rel=0, abs=4 * eps)
        assert frame.b_tilde[0, 0] == pytest.approx(i_xy - i_y / (1.0 - alpha), rel=0, abs=4 * eps)


def test_hess22_matches_finite_difference_of_grad2():
    prob = alpha_em_problem(MODEL, 0.3)
    rng = CounterRNG(65)
    for _ in range(10):
        t = np.array([1.0 + rng.gaussian(1)[0] * 0.3])
        u = np.array([1.0 + rng.gaussian(1)[0] * 0.3])
        h = 1e-6
        fd = (prob.grad2(t, u + h)[0] - prob.grad2(t, u - h)[0]) / (2 * h)
        assert prob.hess22(t, u)[0, 0] == pytest.approx(fd, rel=1e-6, abs=1e-7)



def test_sample_mode_requires_data():
    # data given selects sample mode, which needs at least one observation
    with pytest.raises(SurroError, match="at least one observation is required"):
        alpha_em_problem(MODEL, 0.25, data=[])


DERIVATIVE_TOL = 1e-13  # on |float - reference| / (1 + |reference|)


def _tilted_derivatives(model, alpha, t, u, cells, scale2):
    """Value, grad2, hess22 and hess12 at 50 digits by exponential tilting: with
    L = a x + b and X ~ N(c, s2), E[e^{alpha L} g(X)] = M E[g(X')] where
    M = exp(alpha (a c + b) + alpha^2 a^2 s2 / 2) and X' ~ N(c + alpha a s2, s2).  Each
    cell's posterior center is c = t + wx (y - t) for its observation y (theta_star in
    population).  hess12 is the t-derivative of grad2, through da/dt = -1/sx2,
    db/dt = t/sx2 and dc/dt = 1 - wx."""
    with mpmath.workdps(50):
        sx2, sy2, s2, al = (
            mpmath.mpf(v) for v in (model.sigma_x2, model.sigma_y2, scale2, alpha))
        t, u = mpmath.mpf(t), mpmath.mpf(u)
        a, b = (u - t) / sx2, -(u * u - t * t) / (2 * sx2)
        da, db, dc = -1 / sx2, t / sx2, 1 - sx2 / (sx2 + sy2)
        value = grad = hess = mixed = mpmath.mpf(0)
        for y in cells:
            c = t + sx2 / (sx2 + sy2) * (mpmath.mpf(y) - t)
            moment = mpmath.exp(al * (a * c + b) + al**2 * a**2 * s2 / 2)
            value += -(a * c + b) if alpha == 0 else (moment - 1) / (al * (al - 1))
            d = c + al * a * s2 - u
            grad += moment * d
            hess += moment * (al * (d * d + s2) / sx2 - 1)
            d_exponent = al * (da * c + a * dc + db) + al**2 * a * da * s2
            mixed += moment * (d_exponent * d + dc + al * da * s2)
        scale = len(cells) * (1 - al) * sx2
        return value / len(cells), -grad / scale, -hess / scale, -mixed / scale


def _cells(mode):
    """(problem data, cell observations, cell variance) of MODEL in the given mode."""
    if mode == "population":
        return None, [MODEL.theta_star], MODEL.sigma_x2
    data = MODEL.sample_y(9, CounterRNG(66))
    return data, data, MODEL.posterior_var


@pytest.mark.parametrize("mode", ["population", "sample"])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, -0.5, 0.9])
def test_derivatives_match_the_tilted_moment_oracle(alpha, mode):
    data, cells, scale2 = _cells(mode)
    prob = alpha_em_problem(MODEL, alpha, data=data)
    grid = (-0.5, 0.4, 1.0, 1.6, 2.5)
    for t in grid:
        for u in grid:
            _, *want = _tilted_derivatives(MODEL, alpha, t, u, cells, scale2)
            args = np.array([t]), np.array([u])
            got = prob.grad2(*args)[0], prob.hess22(*args)[0, 0], prob.hess12(*args)[0, 0]
            for g, w in zip(got, want):
                assert abs(g - w) <= DERIVATIVE_TOL * (1 + abs(w)), (t, u)


@pytest.mark.parametrize("mode", ["population", "sample"])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, -0.5, 0.9])
def test_value_near_the_diagonal_matches_the_50_digit_oracle(alpha, mode):
    """The surrogate gap Q(t, u) shrinks like k^2 as u, t close in on the fixed point
    (theta_star, or the sample mean); written in u^2 - t^2 or exp(E) - 1, it would
    drown in the O(eps) rounding of its own terms."""
    data, cells, scale2 = _cells(mode)
    prob = alpha_em_problem(MODEL, alpha, data=data)
    ref = float(np.mean(cells))
    for k in (1e-2, 1e-4, 1e-6, 1e-8):
        t, u = ref + k, ref + 2 * k
        want, *_ = _tilted_derivatives(MODEL, alpha, t, u, cells, scale2)
        got = prob.eval_q(np.array([t]), np.array([u]))
        assert abs(got - want) <= 1e-6 * abs(want), (k, got, float(want))
