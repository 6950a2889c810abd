"""Mirror descent / prox / Newton problem builders and their curvature."""

import math
import warnings

import numpy as np
import pytest

from surro.descent import (
    IncompatibleDomain,
    SingularHessian,
    _MemoStep,
    audit_prox_hypotheses,
    mirror_descent_problem,
    mirror_prox_problem,
    newton_problem,
)
from surro.domains import AffineSlice, Box, EuclideanBall, FullSpace, Simplex
from surro.mirror_maps import BallMap, MirrorMap, NegEntropyMap, QuadraticMap
from surro.objectives import CustomObjective, QuadraticForm, Quartic1D, ShiftedQuadratic
from surro.rates import curvature_at
from surro.rng import CounterRNG
from surro.surrogate import StopReason, SurrogateProblem, inner_minimize, iterate


def test_md_quadratic_step_is_projected_gradient_step():
    f = QuadraticForm(np.diag([1.0, 4.0]))
    prob = mirror_descent_problem(f, QuadraticMap(2), 0.4, FullSpace(2))
    out = prob.closed_form_step(np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [0.6, -0.6], atol=1e-15)


def test_md_curvature_identities():
    f = QuadraticForm(np.diag([1.0, 4.0]))
    prob = mirror_descent_problem(f, QuadraticMap(2), 0.4, FullSpace(2))
    frame = curvature_at(prob, np.zeros(2))
    np.testing.assert_allclose(frame.a_tilde, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(frame.b_tilde, np.eye(2) - 0.4 * f.h, atol=1e-12)


def test_md_small_step_limit_recovers_the_mirror_hessian():
    f = QuadraticForm(np.diag([1.0, 4.0]))
    for eta in (1e-2, 1e-4, 1e-6):
        prob = mirror_descent_problem(f, QuadraticMap(2), eta, FullSpace(2))
        frame = curvature_at(prob, np.zeros(2))
        assert np.max(np.abs(frame.b_tilde - frame.a_tilde)) <= 4.0 * eta + 1e-12


def test_md_surrogate_value_at_diagonal():
    f = QuadraticForm(np.diag([2.0, 1.0]))
    eta = 0.3
    prob = mirror_descent_problem(f, QuadraticMap(2), eta, FullSpace(2))
    rng = CounterRNG(40)
    for _ in range(20):
        theta = rng.gaussian(2)
        # D(theta, theta) = 0 leaves only the linearized term
        assert prob.eval_q(theta, theta) == pytest.approx(eta * float(f.grad(theta) @ theta))
        np.testing.assert_allclose(
            prob.grad2(theta, theta), eta * f.grad(theta), atol=1e-12
        )


@pytest.mark.parametrize("build", [mirror_descent_problem, mirror_prox_problem],
                         ids=lambda build: build.__name__)
def test_md_grad2_matches_finite_differences_of_eval(build):
    prob = build(ShiftedQuadratic(np.array([0.5, 0.3, 0.2])), NegEntropyMap(3), 0.2, Simplex(3))
    rng = CounterRNG(41)
    for _ in range(10):
        # stay away from the faces, where the entropy's third derivative
        # spoils the central-difference comparison
        theta = 0.7 * Simplex(3).sample(rng) + 0.1
        u = 0.7 * Simplex(3).sample(rng) + 0.1
        g = prob.grad2(theta, u)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6
            fd = (prob.eval_q(theta, u + e) - prob.eval_q(theta, u - e)) / 2e-6
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_md_incompatible_domain_rejected():
    f = QuadraticForm(np.eye(2))
    with pytest.raises(IncompatibleDomain):
        mirror_descent_problem(f, NegEntropyMap(2), 0.1, Box([-2.0, -2.0], [-1.0, -1.0]))
    with pytest.raises(IncompatibleDomain):
        mirror_descent_problem(f, QuadraticMap(3), 0.1, FullSpace(2))
    with pytest.raises(IncompatibleDomain):  # centred on the sphere that bounds the map's ball
        mirror_descent_problem(f, BallMap(2, r2=4.0), 0.1, EuclideanBall([0.0, 2.0], 0.5))


def test_mirror_surrogate_is_infinite_off_the_map_domain():
    ball = mirror_descent_problem(ShiftedQuadratic(np.array([0.3, -0.2])), BallMap(2, r2=4.0),
                                  0.4, EuclideanBall(np.zeros(2), 1.0))
    theta = np.array([0.1, 0.2])
    assert math.isfinite(ball.eval_q(theta, np.array([1.9, 0.0])))
    for u in ([2.0, 0.0], [0.0, -2.0], [3.0, 1.0]):  # |u|^2 >= r2
        assert ball.eval_q(theta, np.array(u)) == math.inf
    entropy = mirror_descent_problem(ShiftedQuadratic(np.array([0.5, 0.3, 0.2])),
                                     NegEntropyMap(3), 0.2, Simplex(3))
    theta = np.full(3, 1.0 / 3.0)
    for u in ([0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [-0.1, 0.6, 0.5]):
        assert entropy.eval_q(theta, np.array(u)) == math.inf


def test_entropy_descent_on_an_affine_slice_stays_on_the_plane():
    """The simplex written as {x : x1 + x2 + x3 = 1} in [0, 1]^3 has no closed form,
    and the numeric steps must stay on the plane while a coordinate tends to 0.

    Each step is the multiplicative-weights step on the simplex without a face bound."""
    f = ShiftedQuadratic(np.array([-0.5, 0.8, 0.7]))
    plane = AffineSlice(np.ones((1, 3)), np.ones(1), Box(np.zeros(3), np.ones(3)))
    problem = mirror_descent_problem(f, NegEntropyMap(3), 2.0, plane)
    assert problem.closed_form_step is None
    closed = mirror_descent_problem(f, NegEntropyMap(3), 2.0, Simplex(3, face_eps=0.0))
    trace = iterate(problem, np.full(3, 1.0 / 3.0))
    assert trace.stop_reason is StopReason.CONVERGED and len(trace) == 19
    for theta, step in zip(trace.iterates, trace.iterates[1:]):
        assert plane.contains(step) and (step > 0.0).all()
        np.testing.assert_allclose(step, closed.closed_form_step(theta), rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace.final, [0.0, 0.55, 0.45], rtol=0, atol=1e-12)


def test_closed_form_step_first_order_condition():
    rng = CounterRNG(42)
    cases = [
        (
            mirror_descent_problem(
                QuadraticForm(np.diag([1.0, 2.0])), QuadraticMap(2), 0.3, FullSpace(2)
            ),
            lambda: rng.gaussian(2),
        ),
        (
            mirror_descent_problem(
                ShiftedQuadratic(np.array([0.5, 0.3, 0.2])), NegEntropyMap(3), 0.2, Simplex(3)
            ),
            lambda: Simplex(3).sample(rng),
        ),
    ]
    for prob, draw in cases:
        for _ in range(100):
            theta = draw()
            step = prob.closed_form_step(theta)
            assert prob.domain.contains(step, tol=1e-9)
            assert float(prob.grad2(theta, step) @ (theta - step)) >= -1e-8


def test_prox_fixed_point_coincides_with_descent_fixed_point():
    center = np.array([0.5, 0.3, 0.2])
    prox = mirror_prox_problem(ShiftedQuadratic(center), NegEntropyMap(3), 0.2, Simplex(3))
    out = inner_minimize(prox, center)
    assert np.linalg.norm(out - center) <= 1e-10
    half = mirror_descent_problem(ShiftedQuadratic(center), NegEntropyMap(3), 0.2, Simplex(3))
    zeta = inner_minimize(half, center)
    assert np.linalg.norm(zeta - center) <= 1e-10


def test_prox_scalar_composition_multiplier():
    # two chained gradient steps: theta -> (1 - eta*(1 - eta)) theta for H = 1
    f = QuadraticForm(np.eye(1))
    prox = mirror_prox_problem(f, QuadraticMap(1), 0.4, FullSpace(1))
    out = inner_minimize(prox, np.array([1.0]))
    assert out[0] == pytest.approx(0.76, abs=1e-12)


def test_prox_records_half_steps_in_trace():
    f = QuadraticForm(np.eye(1))
    prox = mirror_prox_problem(f, QuadraticMap(1), 0.4, FullSpace(1))
    half = mirror_descent_problem(f, QuadraticMap(1), 0.4, FullSpace(1))
    trace = iterate(prox, np.array([1.0]))
    assert len(trace) > 1
    half_steps = [inner_minimize(half, t) for t in trace.iterates[:-1]]
    # the half step is the plain gradient step
    assert half_steps[0][0] == pytest.approx(0.6, abs=1e-12)


def test_prox_reduced_curvature_identity():
    f = QuadraticForm(np.diag([1.0, 1.25]))
    md = mirror_descent_problem(f, QuadraticMap(2), 0.5, FullSpace(2))
    prox = mirror_prox_problem(f, QuadraticMap(2), 0.5, FullSpace(2))
    star = np.zeros(2)
    s = np.linalg.solve(curvature_at(md, star).a_tilde, curvature_at(md, star).b_tilde)
    frame = curvature_at(prox, star)
    lhs = np.linalg.solve(frame.a_tilde, frame.b_tilde)
    np.testing.assert_allclose(lhs, s @ s - s + np.eye(2), atol=1e-6)


def test_prox_hypothesis_audit_warns_on_large_step():
    f = QuadraticForm(np.diag([1.0, 4.0]))  # beta = 4, gamma = 1
    with pytest.warns(UserWarning, match="gamma/beta"):
        audit_prox_hypotheses(f, QuadraticMap(2), 0.3, FullSpace(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        audit_prox_hypotheses(f, QuadraticMap(2), 0.2, FullSpace(2))
        # without a declared beta nothing is checked, however large the step
        undeclared = CustomObjective(2, f.value, f.grad, f.hess)
        gamma_beta = audit_prox_hypotheses(undeclared, QuadraticMap(2), 50.0, FullSpace(2))
        assert gamma_beta == (1.0, None)
        prox = mirror_prox_problem(undeclared, QuadraticMap(2), 50.0, FullSpace(2))
        assert prox.label == "mirror_prox(eta=50, gamma=1.0, beta=n/a)"
    # nor without a known strong-convexity constant: the base map knows none
    assert MirrorMap().strong_convexity(FullSpace(2)) is None


def test_half_step_memo_keeps_at_most_4097_points():
    memo = _MemoStep(SurrogateProblem(q=1, domain=FullSpace(1), eval_q=None, grad2=None,
                                      closed_form_step=lambda t: 0.5 * t))
    first = memo(np.array([0.0]))
    assert memo(np.array([0.0])) is first
    for i in range(1, 4097):
        memo(np.array([float(i)]))
    assert len(memo.cache) == 4097
    assert memo(np.array([-8.0])).tolist() == [-4.0]
    assert list(memo.cache) == [np.array([-8.0]).tobytes()]


def test_newton_one_step_on_quadratics():
    f = QuadraticForm(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([1.0, -0.5]))
    prob = newton_problem(f)
    rng = CounterRNG(43)
    for _ in range(10):
        theta0 = rng.gaussian(2) * 3
        out = inner_minimize(prob, theta0)
        np.testing.assert_allclose(out, f.minimizer(), atol=1e-12)


def test_newton_curvature_at_stationary_point():
    f = QuadraticForm(np.diag([3.0, 5.0]))
    prob = newton_problem(f)
    frame = curvature_at(prob, np.zeros(2))
    np.testing.assert_allclose(frame.a_tilde, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(frame.b_tilde, np.zeros((2, 2)), atol=1e-9)


def test_newton_on_a_box_steps_to_the_projected_newton_point():
    # from 1.0 the Newton point of x^4/4 + x^2/2 is 0.5, then 1/7, which the box clips to 0.5
    prob = newton_problem(Quartic1D(), Box([0.5], [2.0]))
    trace = iterate(prob, np.array([1.0]))
    assert trace.stop_reason is StopReason.CONVERGED
    assert [t.tolist() for t in trace.iterates] == [[1.0], [0.5]]


def test_newton_singular_hessian():
    flat = CustomObjective(
        q=1,
        fun=lambda x: float(x[0]),
        gradient=lambda x: np.array([1.0]),
        hessian=lambda x: np.array([[0.0]]),
    )
    prob = newton_problem(flat)
    with pytest.raises(SingularHessian):
        prob.closed_form_step(np.array([1.0]))
