"""Mirror maps, Bregman divergences and Bregman projections."""

import math

import numpy as np
import pytest

from surro import mirror_maps, surrogate
from surro.domains import Box, EuclideanBall, Simplex
from surro.mirror_maps import BallMap, NegEntropyMap, QuadraticMap, bregman, bregman_project
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
    with pytest.raises(mirror_maps.OutsideMirrorDomain):
        bregman(phi, np.array([-0.1, 0.5]), np.array([0.5, 0.5]))
    ball = BallMap(2, r2=1.0)
    with pytest.raises(mirror_maps.OutsideMirrorDomain):
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
            try:
                return super().value(x)
            except mirror_maps.OutsideMirrorDomain:
                refused.append(x)
                raise

    phi, dom = CountingBall(2, r2=1.0), Box([-3.0, -3.0], [3.0, 0.5])
    zeta = np.array([0.5, 0.8])
    out = bregman_project(dom, phi, zeta)
    assert refused and dom.contains(out) and phi.in_domain(out)
    # the minimizer lies on the face x2 = 0.5, inside the unit ball
    assert out[1] == 0.5
    grid = [np.array([x, 0.5]) for x in np.linspace(-0.866, 0.866, 20_001)]
    assert bregman(phi, out, zeta) <= min(bregman(phi, y, zeta) for y in grid) + 1e-12


def test_bregman_projection_from_a_start_off_the_map_domain_raises_projection_failed():
    # the clipped start [0.9, 0.5] lies outside the map's unit ball: no gradient there
    with pytest.raises(mirror_maps.ProjectionFailed, match=r"start \[0\.9, 0\.5\]"):
        bregman_project(Box([-3.0, 0.5], [3.0, 3.0]), BallMap(2, r2=1.0), np.array([0.9, 0.0]))


def test_entropy_closed_projection_keeps_the_face_bound():
    phi, dom = NegEntropyMap(3), Simplex(3, face_eps=0.05)
    out = phi.closed_projection(dom, np.array([1e-4, 0.5, 1.0]))
    assert dom.contains(out) and out[0] == 0.05
    assert 0.05 < out[1] < out[2]
    # off the simplex there is no closed form, and bregman_project solves numerically
    assert phi.closed_projection(Box([0.1, 0.1, 0.1], [1.0, 1.0, 1.0]), out) is None


def test_entropy_closed_projection_on_an_active_face_is_the_kl_projection():
    phi, dom = NegEntropyMap(3), Simplex(3, face_eps=0.05)
    z = np.array([1e-4, 0.5, 1.0])
    out = phi.closed_projection(dom, z)
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
        out = NegEntropyMap(4).closed_projection(dom, z)
        free = out > dom.face_eps
        c = out[free] / z[free]
        assert dom.contains(out) and np.ptp(c) <= 1e-12 * c.max()
        assert (c.max() * z[~free] <= dom.face_eps * (1.0 + 1e-12)).all()


def test_a_failed_numeric_projection_raises_projection_failed(monkeypatch):
    def stall(**kwargs):
        raise surrogate.SolveFailure("iteration cap 500 reached (residual 1.000e-08)")

    monkeypatch.setattr(surrogate, "minimize_smooth", stall)
    with pytest.raises(mirror_maps.ProjectionFailed, match="iteration cap 500 reached"):
        bregman_project(Box([0.0, 0.0], [1.0, 1.0]), BallMap(2, r2=4.0), np.array([1.5, 0.2]))
