"""Quadrature-evaluated alpha-EM surrogates against closed-form oracles."""

import math

import mpmath
import numpy as np
import pytest

from surro.latent import (
    AlphaIndex,
    EmptyData,
    GaussianLatentModel,
    ModelError,
    QuadratureFailure,
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


def test_alpha_index_properties():
    for alpha in (-0.5, 0.0, 0.3, 0.9, 2.0):
        idx = AlphaIndex(alpha)
        assert idx.f(1.0) == pytest.approx(0.0, abs=1e-15)
        # concavity on the positive axis via second differences
        for x in (0.2, 0.7, 1.5, 4.0):
            h = 1e-4 * x
            second = (idx.f(x + h) - 2 * idx.f(x) + idx.f(x - h)) / h**2
            assert second <= 1e-6
    with pytest.raises(ModelError):
        AlphaIndex(1.0)


# theta_star = 5 with alpha = 0.75 needs 80 nodes: the rule doubles once past the start
@pytest.mark.parametrize("alpha, model", [
    (0.25, MODEL), (0.5, MODEL), (-0.3, MODEL), (0.75, GaussianLatentModel(1.0, 1.0, 5.0)),
], ids=["0.25", "0.5", "-0.3", "0.75-doubled"])
def test_population_eval_matches_closed_form(alpha, model):
    prob = alpha_em_problem(model, alpha, mode="population")
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
    prob = alpha_em_problem(MODEL, alpha, mode="sample", data=data)
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
    prob = alpha_em_problem(MODEL, alpha, mode="population")
    z, w = np.polynomial.hermite_e.hermegauss(120)
    w = w / math.sqrt(2.0 * math.pi)
    wx = MODEL.sigma_x2 / MODEL.marginal_var
    sv = math.sqrt(MODEL.marginal_var)
    pv = math.sqrt(MODEL.posterior_var)
    idx = AlphaIndex(alpha)

    def double_quad(t, u):
        a, b = _log_ratio_coeffs(MODEL, t, u)
        ys = MODEL.theta_star + sv * z
        centers = t + wx * (ys - t)
        x = centers[:, None] + pv * z[None, :]
        inner = (idx.f(np.exp(a * x - b))) @ w
        return -float(inner @ w)

    for t, u in ((1.4, 0.9), (0.6, 1.3), (1.05, 1.0)):
        got = prob.eval_q(np.array([t]), np.array([u]))
        assert got == pytest.approx(double_quad(t, u), rel=1e-8, abs=1e-9)


def test_alpha_zero_reduces_to_em_up_to_diagonal_shift():
    # the ratio form subtracts the surrogate's own diagonal value
    prob0 = alpha_em_problem(MODEL, 0.0, mode="population")
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
    prob0 = alpha_em_problem(MODEL, 0.0, mode="sample", data=data)
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
    prob0 = alpha_em_problem(MODEL, 0.0, mode="population")
    sups = []
    for alpha in (1e-1, 1e-2, 1e-3):
        prob = alpha_em_problem(MODEL, alpha, mode="population")
        gaps = [
            abs(prob.eval_q(t, u) - prob0.eval_q(t, u)) / (1.0 + abs(prob0.eval_q(t, u)))
            for t, u in pairs
        ]
        sups.append(max(gaps))
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] <= sups[0] / 50.0  # linear-in-alpha scaling


def test_population_curvature_matches_information_formula():
    # second derivatives probed by finite differences of the quadrature gradient
    for alpha in (0.25, 0.5, -0.5):
        prob = alpha_em_problem(MODEL, alpha, mode="population")
        frame = curvature_at(prob, np.array([1.0]))
        i_xy = 1.0
        i_y = 0.5
        assert frame.a_tilde[0, 0] == pytest.approx(i_xy, abs=1e-5)
        assert frame.b_tilde[0, 0] == pytest.approx(i_xy - i_y / (1.0 - alpha), abs=1e-5)


def test_hess22_matches_finite_difference_of_grad2():
    prob = alpha_em_problem(MODEL, 0.3, mode="population")
    rng = CounterRNG(65)
    for _ in range(10):
        t = np.array([1.0 + rng.gaussian(1)[0] * 0.3])
        u = np.array([1.0 + rng.gaussian(1)[0] * 0.3])
        h = 1e-6
        fd = (prob.grad2(t, u + h)[0] - prob.grad2(t, u - h)[0]) / (2 * h)
        assert prob.hess22(t, u)[0, 0] == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_sample_mode_requires_data():
    with pytest.raises(EmptyData):
        alpha_em_problem(MODEL, 0.25, mode="sample")
    with pytest.raises(EmptyData):
        alpha_em_problem(MODEL, 0.25, mode="sample", data=[])


def test_quadrature_failure_when_node_cap_is_tiny(monkeypatch):
    import surro.latent as latent

    monkeypatch.setattr(latent, "QUAD_START_NODES", 1)
    monkeypatch.setattr(latent, "QUAD_MAX_NODES", 2)
    with pytest.raises(QuadratureFailure):
        alpha_em_problem(MODEL, 0.4, mode="population")


DERIVATIVE_TOL = 1e-13  # on |float - reference| / (1 + |reference|)


def _tilted_derivatives(model, alpha, t, u, cells, scale2):
    """grad2 and hess22 at 50 digits by exponential tilting: with L = a x + b and
    X ~ N(c, s2), E[e^{alpha L} g(X)] = M E[g(X')] where M = exp(alpha (a c + b) +
    alpha^2 a^2 s2 / 2) and X' ~ N(c + alpha a s2, s2).  Each cell's posterior
    center is c = t + wx (y - t) for its observation y (theta_star in population)."""
    with mpmath.workdps(50):
        sx2, sy2, s2, al = (
            mpmath.mpf(v) for v in (model.sigma_x2, model.sigma_y2, scale2, alpha))
        t, u = mpmath.mpf(t), mpmath.mpf(u)
        a, b = (u - t) / sx2, -(u * u - t * t) / (2 * sx2)
        grad = hess = mpmath.mpf(0)
        for y in cells:
            c = t + sx2 / (sx2 + sy2) * (mpmath.mpf(y) - t)
            moment = mpmath.exp(al * (a * c + b) + al**2 * a**2 * s2 / 2)
            d = c + al * a * s2 - u
            grad += moment * d
            hess += moment * (al * (d * d + s2) / sx2 - 1)
        scale = len(cells) * (1 - al) * sx2
        return -grad / scale, -hess / scale


@pytest.mark.parametrize("mode", ["population", "sample"])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, -0.5, 0.9])
def test_derivatives_match_the_tilted_moment_oracle(alpha, mode):
    data = MODEL.sample_y(9, CounterRNG(66)) if mode == "sample" else None
    prob = alpha_em_problem(MODEL, alpha, mode=mode, data=data)
    cells = [MODEL.theta_star] if mode == "population" else data
    scale2 = MODEL.sigma_x2 if mode == "population" else MODEL.posterior_var
    grid = (-0.5, 0.4, 1.0, 1.6, 2.5)
    for t in grid:
        for u in grid:
            grad, hess = _tilted_derivatives(MODEL, alpha, t, u, cells, scale2)
            got_grad = prob.grad2(np.array([t]), np.array([u]))[0]
            got_hess = prob.hess22(np.array([t]), np.array([u]))[0, 0]
            assert abs(got_grad - grad) <= DERIVATIVE_TOL * (1 + abs(grad)), (t, u)
            assert abs(got_hess - hess) <= DERIVATIVE_TOL * (1 + abs(hess)), (t, u)
