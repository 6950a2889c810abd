"""Gaussian latent model: EM surrogates, Fisher informations, mixture demo."""

import dataclasses
import math

import numpy as np
import pytest

from surro.errors import SurroError
from surro.latent import (
    GaussianLatentModel,
    TwoComponentMixture,
    em_population_problem,
    em_sample_problem,
    fisher_information,
)
from surro.rates import curvature_at
from surro.rng import CounterRNG
from surro.surrogate import StopRule, inner_minimize, iterate


def test_model_validation():
    with pytest.raises(Exception):
        GaussianLatentModel(-1.0, 1.0, 0.0)
    with pytest.raises(Exception):
        TwoComponentMixture(0.0)


def test_fisher_information_chain_rule_examples():
    i_xy, i_y, i_cond = fisher_information(GaussianLatentModel(1.0, 1.0, 0.0))
    assert (i_xy[0, 0], i_y[0, 0], i_cond[0, 0]) == pytest.approx((1.0, 0.5, 0.5))
    i_xy, i_y, i_cond = fisher_information(GaussianLatentModel(1.0, 3.0, 0.0))
    assert (i_xy[0, 0], i_y[0, 0], i_cond[0, 0]) == pytest.approx((1.0, 0.25, 0.75))
    np.testing.assert_allclose(i_xy, i_y + i_cond)


def test_fisher_information_noiseless_limit():
    model = GaussianLatentModel(1.0, 1e-12, 0.0)
    i_xy, i_y, i_cond = fisher_information(model)
    assert i_y[0, 0] == pytest.approx(i_xy[0, 0], rel=1e-10)
    assert i_cond[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_fisher_information_monte_carlo_score_variance():
    # I_Y equals the variance of the observed score; estimate it by simulation
    model = GaussianLatentModel(1.0, 1.0, theta_star=0.7)
    rng = CounterRNG(50)
    y = model.sample_y(1_000_000, rng)
    score = (y - model.theta_star) / model.marginal_var
    estimate = float(np.var(score))
    assert estimate == pytest.approx(fisher_information(model)[1][0, 0], rel=1e-2)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("sx2, sy2", [(1.0, 1.0), (1.0, 3.0), (0.3, 2.0), (5.0, 0.01)])
def test_em_curvature_pair_is_the_fisher_information_pair(sx2, sy2, analytic):
    # missing-information principle (Dempster, Laird & Rubin 1977): at the fixed
    # point A* is the complete-data information I_XY, B* the missing information
    # I_{X|Y}, and the EM rate their ratio.  The analytic blocks match both to a
    # few eps; the probes' error scales with I_XY, which at (5, 0.01) is 501 I_{X|Y}
    model = GaussianLatentModel(sx2, sy2, theta_star=0.7)
    i_xy, _, i_cond = (float(m[0, 0]) for m in fisher_information(model))
    data = model.sample_y(50, CounterRNG(54))
    tol = 4 * np.finfo(float).eps if analytic else 1e-10
    b_tol = tol * (i_cond if analytic else i_xy)
    for prob, star in ((em_population_problem(model), model.theta_star),
                       (em_sample_problem(model, data), float(np.mean(data)))):
        assert prob.closed_form_step(np.array([star]))[0] == pytest.approx(star, rel=tol, abs=0)
        if not analytic:
            prob = dataclasses.replace(prob, hess22=None, hess12=None)
        frame = curvature_at(prob, np.array([star]))
        assert frame.a_star[0, 0] == pytest.approx(i_xy, rel=tol, abs=0)
        assert frame.b_star[0, 0] == pytest.approx(i_cond, rel=0, abs=b_tol)
        assert frame.rates.rho_sup == pytest.approx(i_cond / i_xy, rel=0, abs=tol)


def test_population_em_closed_step_and_fixed_point():
    model = GaussianLatentModel(1.0, 1.0, theta_star=1.0)
    prob = em_population_problem(model)
    out = prob.closed_form_step(np.array([2.0]))
    assert out[0] == pytest.approx(1.5)  # theta* + w (theta - theta*) with w = 1/2
    assert prob.closed_form_step(np.array([1.0]))[0] == pytest.approx(1.0)


def test_population_em_grad_matches_finite_differences():
    model = GaussianLatentModel(1.3, 0.7, theta_star=-0.5)
    prob = em_population_problem(model)
    rng = CounterRNG(51)
    for _ in range(20):
        t = rng.gaussian(1)
        u = rng.gaussian(1)
        h = 1e-6
        fd = (prob.eval_q(t, u + h) - prob.eval_q(t, u - h)) / (2 * h)
        assert prob.grad2(t, u)[0] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_population_em_objective_consistency():
    # the surrogate's diagonal gradient equals the population objective gradient
    model = GaussianLatentModel(1.0, 2.0, theta_star=0.3)
    prob = em_population_problem(model)
    s = model.marginal_var
    rng = CounterRNG(52)
    for _ in range(20):
        t = rng.gaussian(1) * 2
        expected = (t[0] - model.theta_star) / s
        assert prob.grad2(t, t)[0] == pytest.approx(expected, abs=1e-12)


def test_sample_em_posterior_mean_update():
    model = GaussianLatentModel(1.0, 1.0, theta_star=2.0)
    prob = em_sample_problem(model, np.array([2.0]))  # single observation at theta*
    out = prob.closed_form_step(np.array([3.0]))
    assert out[0] == pytest.approx(2.5)


def test_sample_em_curvature_is_data_independent():
    model = GaussianLatentModel(1.0, 1.0, theta_star=0.0)
    rng = CounterRNG(53)
    frames = []
    for _ in range(3):
        data = model.sample_y(40, rng)
        prob = em_sample_problem(model, data)
        theta_hat = np.array([float(np.mean(data))])
        frame = curvature_at(dataclasses.replace(prob, hess22=None, hess12=None), theta_hat)
        frames.append((frame.a_tilde[0, 0], frame.b_tilde[0, 0]))
    for a, b in frames:
        assert a == pytest.approx(1.0, abs=1e-9)
        assert b == pytest.approx(0.5, abs=1e-9)


def test_sample_em_fixed_point_is_sample_mean():
    model = GaussianLatentModel(2.0, 1.0, theta_star=0.0)
    data = np.array([1.0, 3.0, -1.0, 2.0])
    prob = em_sample_problem(model, data)
    trace = iterate(prob, np.array([10.0]))
    assert trace.final[0] == pytest.approx(np.mean(data), abs=1e-10)


def test_sample_em_lyapunov_is_negative_observed_loglik():
    model = GaussianLatentModel(1.0, 1.0, theta_star=0.0)
    data = np.array([0.5, -0.5])
    prob = em_sample_problem(model, data)
    s = model.marginal_var
    theta = np.array([0.3])
    direct = np.mean(
        0.5 * (data - theta[0]) ** 2 / s + 0.5 * math.log(2 * math.pi * s)
    )
    assert prob.lyapunov(theta) == pytest.approx(direct)


def test_population_em_lyapunov_is_the_expected_negative_loglik():
    # E[-log p_theta(Y)] for Y ~ N(theta_star, s), by Gauss-Hermite nodes (exact for a quadratic)
    model = GaussianLatentModel(2.0, 0.5, theta_star=-1.0)
    prob = em_population_problem(model)
    z, w = np.polynomial.hermite_e.hermegauss(4)
    y = model.theta_star + math.sqrt(model.marginal_var) * z
    for theta in (-1.0, 0.0, 2.5):
        expected = -sum(wi * model.observed_loglik(theta, [yi]) for wi, yi in zip(w, y))
        expected /= math.sqrt(2.0 * math.pi)
        assert prob.lyapunov(np.array([theta])) == pytest.approx(expected, rel=1e-14)


def test_sample_em_empty_data():
    with pytest.raises(SurroError, match="at least one observation is required"):
        em_sample_problem(GaussianLatentModel(1.0, 1.0, 0.0), [])


def test_mixture_em_step_matches_responsibility_formula():
    mix = TwoComponentMixture(theta_star=1.0)
    rng = CounterRNG(54)
    data = mix.sample_y(100, rng)
    prob = mix.sample_problem(data)
    theta = np.array([0.8])
    out = prob.closed_form_step(theta)
    assert out[0] == pytest.approx(float(np.mean(np.tanh(0.8 * data) * data)))
    numeric = inner_minimize(dataclasses.replace(prob, closed_form_step=None), theta)
    assert numeric[0] == pytest.approx(out[0], abs=1e-8)


def test_mixture_em_lyapunov_monotone():
    mix = TwoComponentMixture(theta_star=1.0)
    rng = CounterRNG(55)
    data = mix.sample_y(200, rng)
    prob = mix.sample_problem(data)
    trace = iterate(prob, np.array([2.5]), StopRule(max_iters=100))
    ly = [float(prob.lyapunov(t)) for t in trace.iterates]
    assert all(b <= a + 1e-10 for a, b in zip(ly, ly[1:]))


def test_mixture_population_rate_against_monte_carlo():
    mix = TwoComponentMixture(theta_star=1.0)
    rng = CounterRNG(56)
    y = mix.sample_y(400_000, rng)
    mc = float(np.mean(y**2 / np.cosh(y) ** 2))
    assert mix.population_rate() == pytest.approx(mc, rel=2e-2)


@pytest.mark.parametrize("theta_star", [1e3, 1e300])
def test_mixture_population_rate_takes_the_sech_limit_where_cosh_overflows(theta_star):
    # at these nodes cosh(theta* x) overflows; sech^2 -> 0 there, without a RuntimeWarning
    assert TwoComponentMixture(theta_star).population_rate() == 0.0


def test_sample_rates_hooks_shared_by_both_models():
    for model in (GaussianLatentModel(1.0, 1.0, 0.5), TwoComponentMixture(1.0)):
        rng = CounterRNG(57)
        data = model.sample_y(30, rng)
        prob = model.sample_problem(data)
        assert prob.q == 1
        assert 0 <= model.population_rate() < 1
        assert model.default_theta0().shape == (1,)
