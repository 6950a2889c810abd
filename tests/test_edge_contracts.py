"""Smaller contract points: error types, open-domain safety, edge verdicts."""

import numpy as np
import pytest

import surro.linalg as linalg
from surro.descent import mirror_prox_problem
from surro.domains import EuclideanBall, Simplex
from surro.latent import GaussianLatentModel, em_population_problem
from surro.mirror_maps import BallMap, NegEntropyMap
from surro.objectives import ShiftedQuadratic
from surro.rates import InfeasiblePerturbation, curvature_at, verdicts
from surro.surrogate import StopRule, iterate


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_internal_failure(bad):
    # LAPACK itself returns finite-looking eigenvalues for a NaN entry
    m = np.array([[bad, 1.0], [1.0, 2.0]])
    with pytest.raises(linalg.InternalNumericalFailure):
        linalg.eigh(m)
    with pytest.raises(linalg.InternalNumericalFailure):
        linalg.generalized_rate_pair(m, np.eye(2))
    with pytest.raises(linalg.InternalNumericalFailure):
        linalg.generalized_rate_pair(np.eye(2), m)


def test_lapack_failure_raises_internal_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(linalg.np.linalg, "eigh", fail)
    with pytest.raises(linalg.InternalNumericalFailure):
        linalg.eigh([[2.0, 1.0], [1.0, 2.0]])


def test_prox_aux_iterates_stay_feasible():
    center = np.array([0.5, 0.3, 0.2])
    prox = mirror_prox_problem(ShiftedQuadratic(center), NegEntropyMap(3), 0.2, Simplex(3))
    trace = iterate(prox, np.array([0.2, 0.3, 0.5]), StopRule(max_iters=60))
    for zeta in trace.aux_iterates:
        assert Simplex(3).contains(zeta, tol=1e-12)

    ball = EuclideanBall(np.zeros(2), 1.0)
    prox = mirror_prox_problem(ShiftedQuadratic(np.array([0.3, -0.2])), BallMap(2, 4.0), 0.4, ball)
    trace = iterate(prox, np.array([0.9, 0.0]), StopRule(max_iters=40))
    for point in trace.iterates:
        assert ball.contains(point, tol=1e-12)
    for zeta in trace.aux_iterates:
        assert ball.contains(zeta, tol=1e-12)


def test_curvature_infeasible_perturbation_is_reported():
    center = np.array([0.5, 0.3, 0.2])
    from surro.descent import mirror_descent_problem

    prob = mirror_descent_problem(ShiftedQuadratic(center), NegEntropyMap(3), 0.2, Simplex(3))
    corner = Simplex(3).project(np.array([1.0, 0.0, 0.0]))  # face point
    from surro.rates import FDSpec

    with pytest.raises(InfeasiblePerturbation):
        curvature_at(prob, corner, FDSpec(step=1e-2), prefer_analytic=False)


def test_empty_window_marks_lower_verdict_inapplicable():
    em = em_population_problem(GaussianLatentModel(1.0, 1.0, theta_star=1.5))
    trace = iterate(em, np.array([1.5]))  # fixed-point start: single-point trace
    frame = curvature_at(em, np.array([1.5]))
    rep = verdicts(trace, np.array([1.5]), frame, em)
    assert rep.verdicts["lower"] == "inapplicable"
    assert rep.verdicts["upper"] == "pass"


def test_population_rate_is_the_analytic_shrinkage():
    for sx2, sy2 in ((1.0, 1.0), (1.0, 3.0), (2.0, 0.5)):
        model = GaussianLatentModel(sx2, sy2, theta_star=0.0)
        assert model.population_rate() == pytest.approx(sy2 / (sx2 + sy2))


def test_entropy_strong_convexity_on_simplex():
    phi = NegEntropyMap(3)
    dom = Simplex(3)
    gamma = phi.strong_convexity(dom)
    assert gamma == 1.0
    from surro.rng import CounterRNG

    rng = CounterRNG(80)
    for _ in range(100):
        x = dom.sample(rng)
        assert np.linalg.eigvalsh(phi.hess(x)).min() >= gamma - 1e-9


def test_asymmetry_diagnostic_recorded_on_fd_route():
    em = em_population_problem(GaussianLatentModel(1.0, 1.0, theta_star=1.0))
    frame = curvature_at(em, np.array([1.0]), prefer_analytic=False)
    assert frame.asymmetry_diag >= 0.0
    assert frame.asymmetry_diag <= 1e-6  # scalar problems are exactly symmetric
