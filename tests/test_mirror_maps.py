"""Mirror maps, Bregman divergences and Bregman projections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surro import mirror_maps, surrogate
from surro.descent import mirror_descent_problem
from surro.domains import Box, EuclideanBall, Simplex
from surro.errors import SurroError
from surro.mirror_maps import BallMap, NegEntropyMap, QuadraticMap, bregman, bregman_project
from surro.objectives import CustomObjective
from surro.rng import CounterRNG


def _fd_grad(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


ALL_MAPS = [
    (QuadraticMap(3), lambda rng: rng.gaussian(3)),
    (NegEntropyMap(3), lambda rng: 0.1 + rng.uniform(3)),
    (BallMap(3, r2=4.0), lambda rng: rng.gaussian(3) * 0.4),
]


@pytest.mark.parametrize("phi,draw", ALL_MAPS, ids=["quadratic", "entropy", "ball"])
def test_gradient_matches_finite_differences(phi, draw):
    rng = CounterRNG(10)
    for _ in range(20):
        x = draw(rng)
        approx = _fd_grad(phi.value, x)
        exact = phi.grad(x)
        np.testing.assert_allclose(exact, approx, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("phi,draw", ALL_MAPS, ids=["quadratic", "entropy", "ball"])
def test_hessian_positive_definite_at_interior_points(phi, draw):
    rng = CounterRNG(11)
    for _ in range(100):
        x = draw(rng)
        h = phi.hess(x)
        np.testing.assert_allclose(h, h.T, atol=1e-12)
        assert np.linalg.eigvalsh(h).min() > 0


def test_ball_map_gradient_diverges_at_boundary():
    phi = BallMap(2, r2=4.0)
    radius = math.sqrt(phi.r2)
    x = np.array([radius - 1e-6 * phi.r2, 0.0])
    assert np.linalg.norm(phi.grad(x)) > 1e6


def test_ball_map_strong_convexity_constant():
    phi = BallMap(2, r2=4.0)
    dom = EuclideanBall(np.zeros(2), 1.0)
    gamma = phi.strong_convexity(dom)
    assert gamma == pytest.approx(0.5)
    rng = CounterRNG(12)
    for _ in range(50):
        x = rng.gaussian(2) * 0.5
        assert np.linalg.eigvalsh(phi.hess(x)).min() >= gamma - 1e-12


def test_bregman_quadratic_is_half_squared_distance():
    phi = QuadraticMap(2)
    val = bregman(phi, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert val == pytest.approx(0.5)


def test_bregman_at_equal_points_is_zero():
    rng = CounterRNG(13)
    for phi, draw in ALL_MAPS:
        x = draw(rng)
        assert bregman(phi, x, x) == pytest.approx(0.0, abs=1e-12)


def test_bregman_entropy_is_kl_on_simplex():
    phi = NegEntropyMap(2)
    # direct evaluation of the KL formula
    expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
    got = bregman(phi, np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.14384, abs=1e-5)


def test_bregman_nonnegative_for_convex_maps():
    rng = CounterRNG(14)
    for phi, draw in ALL_MAPS:
        for _ in range(50):
            x, y = draw(rng), draw(rng)
            assert bregman(phi, x, y) >= -1e-12


def test_bregman_outside_domain_raises():
    phi = NegEntropyMap(2)
    with pytest.raises(SurroError, match="outside the mirror-map domain"):
        bregman(phi, np.array([-0.1, 0.5]), np.array([0.5, 0.5]))
    ball = BallMap(2, r2=1.0)
    with pytest.raises(SurroError, match="outside the mirror-map domain"):
        ball.grad(np.array([2.0, 0.0]))


def test_bregman_project_quadratic_clips_to_box():
    out = bregman_project(Box([0.0, 0.0], [1.0, 1.0]), QuadraticMap(2), np.array([2.0, 0.5]))
    np.testing.assert_allclose(out, [1.0, 0.5])


def test_bregman_project_feasible_point_is_fixed():
    dom = Box([0.0, 0.0], [1.0, 1.0])
    z = np.array([0.3, 0.7])
    np.testing.assert_allclose(bregman_project(dom, QuadraticMap(2), z), z)


def test_bregman_project_entropy_normalizes():
    out = bregman_project(Simplex(2), NegEntropyMap(2), np.array([0.2, 0.6]))
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)


def test_bregman_project_entropy_matches_grid_search():
    dom = Simplex(2)
    phi = NegEntropyMap(2)
    zeta = np.array([0.8, 0.1])
    out = bregman_project(dom, phi, zeta)
    xs = np.linspace(1e-6, 1 - 1e-6, 10_000)
    values = [bregman(phi, np.array([x, 1 - x]), zeta) for x in xs]
    best = xs[int(np.argmin(values))]
    assert abs(out[0] - best) <= 2e-4  # grid resolution


def test_bregman_project_ball_map_numeric():
    phi = BallMap(2, r2=4.0)
    dom = EuclideanBall(np.zeros(2), 1.0)
    zeta = np.array([1.5, 0.9])  # inside the map domain, outside the feasible ball
    out = bregman_project(dom, phi, zeta)
    assert dom.contains(out, tol=1e-9)
    # optimality among feasible candidates
    base = bregman(phi, out, zeta)
    rng = CounterRNG(15)
    for _ in range(300):
        y = dom.sample(rng)
        assert bregman(phi, y, zeta) >= base - 1e-8


def test_bregman_projection_refuses_trial_points_off_the_map_domain():
    """The box reaches past the map's unit ball; a Newton step towards the sphere
    overshoots it, and the objective's +inf there halves the step."""
    refused = []

    class CountingBall(BallMap):
        def value(self, x):
            out = super().value(x)
            if out == math.inf:
                refused.append(x)
            return out

    phi, dom = CountingBall(2, r2=1.0), Box([-3.0, -3.0], [3.0, 0.5])
    zeta = np.array([0.5, 0.8])
    out = bregman_project(dom, phi, zeta)
    assert refused and dom.contains(out) and phi.in_domain(out)
    # the minimizer lies on the face x2 = 0.5, inside the unit ball
    assert out[1] == 0.5
    grid = [np.array([x, 0.5]) for x in np.linspace(-0.866, 0.866, 20_001)]
    assert bregman(phi, out, zeta) <= min(bregman(phi, y, zeta) for y in grid) + 1e-12


def test_bregman_projection_from_a_start_off_the_map_domain_raises_solve_failure():
    # the clipped start [0.9, 0.5] lies outside the map's unit ball: no gradient there
    with pytest.raises(surrogate.SolveFailure, match=r"start \[0\.9, 0\.5\] has value inf"):
        bregman_project(Box([-3.0, 0.5], [3.0, 3.0]), BallMap(2, r2=1.0), np.array([0.9, 0.0]))


def test_entropy_closed_projection_keeps_the_face_bound():
    phi, dom = NegEntropyMap(3), Simplex(3, face_eps=0.05)
    out = phi.closed_step(dom, np.array([1e-4, 0.5, 1.0]), 0.0, np.zeros(3))
    assert dom.contains(out) and out[0] == 0.05
    assert 0.05 < out[1] < out[2]
    # off the simplex there is no closed form, and bregman_project solves numerically
    assert phi.closed_step(Box([0.1, 0.1, 0.1], [1.0, 1.0, 1.0]), out, 0.0, np.zeros(3)) is None


def test_entropy_closed_projection_on_an_active_face_is_the_kl_projection():
    phi, dom = NegEntropyMap(3), Simplex(3, face_eps=0.05)
    z = np.array([1e-4, 0.5, 1.0])
    out = phi.closed_step(dom, z, 0.0, np.zeros(3))
    np.testing.assert_allclose(out, [0.05, 0.95 / 3.0, 1.9 / 3.0], rtol=0, atol=1e-15)
    assert abs(bregman(phi, out, z) - 0.376910) < 1e-6
    rng = CounterRNG(23)
    for _ in range(2000):
        assert bregman(phi, out, z) <= bregman(phi, dom.sample(rng), z) + 1e-15
    # on random inputs: x_i = max(face_eps, c z_i), the KKT point of the KL projection
    rng = CounterRNG(29)
    for _ in range(200):
        z = np.exp(4.0 * rng.gaussian(4))
        dom = Simplex(4, face_eps=0.2 * float(rng.uniform(1)[0]))
        out = NegEntropyMap(4).closed_step(dom, z, 0.0, np.zeros(4))
        free = out > dom.face_eps
        c = out[free] / z[free]
        assert dom.contains(out) and np.ptp(c) <= 1e-12 * c.max()
        assert (c.max() * z[~free] <= dom.face_eps * (1.0 + 1e-12)).all()


def test_a_failed_numeric_projection_raises_solve_failure(monkeypatch):
    def stall(**kwargs):
        raise surrogate.SolveFailure("iteration cap 500 reached (residual 1.000e-08)")

    monkeypatch.setattr(mirror_maps, "minimize_smooth", stall)
    with pytest.raises(surrogate.SolveFailure,
                       match=r"iteration cap 500 reached \(residual 1\.000e-08\)"):
        bregman_project(Box([0.0, 0.0], [1.0, 1.0]), BallMap(2, r2=4.0), np.array([1.5, 0.2]))


def _step_draws(rng):
    """(map, domain, theta, z, u) for each shipped map on a domain of its own: z is a
    point of the map's domain, feasible or not, and u a feasible point."""
    simplex, ball = Simplex(3), EuclideanBall(np.zeros(2), 1.5)
    for _ in range(20):
        yield QuadraticMap(3), simplex, simplex.sample(rng), rng.gaussian(3), simplex.sample(rng)
        yield (NegEntropyMap(3), simplex, simplex.sample(rng), np.exp(rng.gaussian(3)),
               simplex.sample(rng))
        z = rng.gaussian(2)
        yield BallMap(2, r2=4.0), ball, ball.sample(rng), 1.9 * z / (1.0 + np.abs(z).sum()), \
            ball.sample(rng)


def test_one_step_serves_the_descent_step_the_projection_and_the_surrogate():
    """MirrorMap.step is the mirror-descent step, bregman_project is the step at g = 0,
    and the map's surrogate is the problem's Q, byte for byte."""
    rng = CounterRNG(31)
    for phi, dom, theta, z, u in _step_draws(rng):
        q = phi.q
        eta, g = 0.05 + float(rng.uniform(1)[0]), rng.gaussian(q)
        linear = CustomObjective(q, lambda x, g=g: float(g @ x), lambda x, g=g: g)
        problem = mirror_descent_problem(linear, phi, eta, dom)
        step = phi.step(dom, theta, eta, g)
        assert step.tobytes() == surrogate.inner_minimize(problem, theta).tobytes()
        projected = bregman_project(dom, phi, z)
        assert projected.tobytes() == phi.step(dom, z, 0.0, np.zeros(q)).tobytes()
        fun, grad = phi.surrogate(theta, eta, g)
        assert fun(u) == problem.eval_q(theta, u) and fun(step) == problem.eval_q(theta, step)
        assert grad(u).tobytes() == problem.grad2(theta, u).tobytes()


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-310, 1e154, 1e308, -1e308]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats()), min_size=1, max_size=8))
def test_in_domain_gives_the_numpy_reductions_answer_on_0d_list_and_nan_inputs(xs):
    """Each map's membership test gives the answer of its numpy-reduction form."""
    def quadratic(x):
        return bool(np.isfinite(x).all())

    def entropy(x):
        v = np.asarray(x)
        return bool(np.isfinite(v).all() and (v > 0.0).all())

    def ball(x):
        v = np.atleast_1d(x)
        return float(v @ v) < 2.0

    v = np.array(xs, dtype=float)
    inputs = [v, xs, np.array(xs[0]), xs[0], np.insert(v, len(xs) // 2, math.nan)]
    with np.errstate(over="ignore", invalid="ignore"):
        for phi, reference in [(QuadraticMap(len(xs)), quadratic),
                               (NegEntropyMap(len(xs)), entropy), (BallMap(len(xs), 2.0), ball)]:
            for x in inputs:
                assert phi.in_domain(x) is reference(x), (phi, x)
