"""Feasible sets: membership, projection consistency, direction bases."""

import warnings

import numpy as np
import pytest

from surro import domains
from surro.errors import SurroError
from surro.rng import CounterRNG


def _variational_inequality_holds(dom, z, rng, samples=200):
    """Euclidean projection is characterized by (z - Pz)'(y - Pz) <= 0 on the set."""
    pz = dom.project(z)
    assert dom.contains(pz, tol=1e-9)
    for _ in range(samples):
        y = dom.sample(rng)
        if float((z - pz) @ (y - pz)) > 1e-9 * (1 + np.linalg.norm(z)):
            return False
    return True


def test_box_validation_and_membership():
    with pytest.raises(SurroError, match="box requires lower < upper componentwise"):
        domains.Box([0.0, 1.0], [1.0, 1.0])
    box = domains.Box([0.0, 0.0], [1.0, 2.0])
    assert box.contains([0.5, 1.0])
    assert not box.contains([1.5, 1.0])
    np.testing.assert_allclose(box.project([2.0, -1.0]), [1.0, 0.0])


def test_ball_projection_radial():
    ball = domains.EuclideanBall([1.0, 0.0], 2.0)
    np.testing.assert_allclose(ball.project([5.0, 0.0]), [3.0, 0.0])
    assert ball.contains(ball.project([10.0, 10.0]), tol=1e-12)


def test_simplex_projection_against_variational_inequality():
    rng = CounterRNG(1)
    simplex = domains.Simplex(4)
    for _ in range(50):
        z = rng.gaussian(4) * 2.0
        assert _variational_inequality_holds(simplex, z, rng)


def test_simplex_membership_and_feasible_projection():
    s = domains.Simplex(3)
    assert s.contains([0.2, 0.3, 0.5])
    assert not s.contains([0.5, 0.6, 0.1])  # sums to 1.2
    assert not s.contains([-0.1, 0.6, 0.5])
    p = s.project([0.2, 0.3, 0.5])
    np.testing.assert_allclose(p, [0.2, 0.3, 0.5], atol=1e-12)


def test_projection_idempotence_across_variants():
    rng = CounterRNG(2)
    cases = [
        domains.FullSpace(3),
        domains.Box([-1.0, 0.0], [1.0, 2.0]),
        domains.EuclideanBall([0.0, 0.0, 0.0], 1.5),
        domains.Simplex(4),
    ]
    for dom in cases:
        for _ in range(20):
            z = rng.gaussian(dom.q) * 3.0
            p = dom.project(z)
            np.testing.assert_allclose(dom.project(p), p, atol=1e-12)
            assert dom.contains(p, tol=1e-9)


def test_affine_slice_projection_and_membership():
    dom = domains.AffineSlice(
        [[1.0, 1.0, 1.0]], [1.0], domains.Box([-2.0] * 3, [2.0] * 3)
    )
    rng = CounterRNG(3)
    for _ in range(30):
        z = rng.gaussian(3) * 2.0
        p = dom.project(z)
        assert abs(np.sum(p) - 1.0) <= 1e-10
        assert dom.contains(p, tol=1e-8)
        assert _variational_inequality_holds(dom, z, rng, samples=100)


def test_affine_slice_requires_independent_rows():
    with pytest.raises(SurroError, match="rows of C must be linearly independent"):
        domains.AffineSlice(
            [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], domains.Box([-1.0] * 2, [1.0] * 2)
        )


def test_direction_basis_full_space_and_simplex():
    np.testing.assert_allclose(domains.FullSpace(3).direction_basis(), np.eye(3))
    p = domains.Simplex(2).direction_basis()
    expect = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
    assert np.allclose(p, expect) or np.allclose(p, -expect)


def test_direction_basis_simplex_zero_sum_orthonormal():
    for q in (2, 3, 5, 8):
        p = domains.Simplex(q).direction_basis()
        assert p.shape == (q, q - 1)
        np.testing.assert_allclose(p.T @ p, np.eye(q - 1), atol=1e-12)
        np.testing.assert_allclose(np.ones(q) @ p, 0.0, atol=1e-12)


def test_direction_basis_affine_slice_annihilates_constraints():
    c = np.array([[1.0, 1.0, 1.0]])
    dom = domains.AffineSlice(c, [1.0], domains.Box([-2.0] * 3, [2.0] * 3))
    p = dom.direction_basis()
    assert p.shape == (3, 2)
    np.testing.assert_allclose(c @ p, 0.0, atol=1e-12)
    np.testing.assert_allclose(p.T @ p, np.eye(2), atol=1e-12)


def test_degenerate_direction_space():
    """A domain whose direction space is {0} is one point: it is refused when built."""
    with pytest.raises(SurroError, match="dimension must be >= 2"):
        domains.Simplex(1)
    with pytest.raises(SurroError, match="constraints pin the slice to a single point"):
        domains.AffineSlice(np.eye(2), [0.5, 0.5], domains.Box([-1.0] * 2, [1.0] * 2))


def test_interior_tests():
    box = domains.Box([0.0], [1.0])
    assert box.is_interior([0.5])
    assert not box.is_interior([0.0])
    ball = domains.EuclideanBall([0.0, 0.0], 1.0)
    assert ball.is_interior([0.2, 0.2])
    assert not ball.is_interior([1.0, 0.0])
    simplex = domains.Simplex(3)
    assert simplex.is_interior([0.3, 0.3, 0.4])
    assert not simplex.is_interior([0.0, 0.5, 0.5])
    assert not simplex.is_interior([0.3, 0.3, 0.3])  # off the plane sum = 1
    plane = domains.AffineSlice([[1.0, 1.0, 1.0]], [1.0], domains.Box([0.0] * 3, [1.0] * 3))
    middle = plane.interior_point()
    np.testing.assert_allclose(middle, [1 / 3] * 3, rtol=1e-15)
    assert plane.is_interior(middle)
    assert not plane.is_interior([0.0, 0.5, 0.5])  # on a box face
    assert not plane.is_interior([0.3, 0.3, 0.3])


def test_simplex_tolerance_covers_the_sum():
    # a caller's slack reaches the equality as well as the face bounds, as on AffineSlice
    simplex = domains.Simplex(2)
    assert simplex.contains([0.5, 0.5 + 5e-10], tol=1e-9)
    assert not simplex.contains([0.5, 0.5 + 5e-10])
    assert not simplex.contains([0.5, 0.5 + 2e-9], tol=1e-9)


def test_simplex_projection_refuses_a_point_it_cannot_resolve():
    """A NaN or infinite coordinate has no projection; it is refused without a numpy warning."""
    simplex = domains.Simplex(3)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for x in ([np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [-np.inf, 1.0, 0.0],
                  [1e308, np.inf, -np.inf]):
            with pytest.raises(SurroError, match="cannot be projected onto the simplex"):
                simplex.project(np.array(x))


# the free coordinates' shifts z_i - Pz_i agree within KKT_TOL (1 + max|z|); the
# largest spread seen on 20 000 draws with q 2 to 8 and scales 1e-8 to 1e12 is 0.71 eps
KKT_TOL = 4 * np.finfo(float).eps


def _assert_kkt_projection(simplex, z):
    """Pz is the projection of z onto {x >= face_eps, sum x = 1} exactly when it lies there,
    its free coordinates (above face_eps) share one shift s = z_i - Pz_i, and each clamped
    coordinate has z_i - face_eps <= s."""
    p = simplex.project(z)
    assert simplex.contains(p) and (p >= simplex.face_eps).all(), (z, p)
    tol = KKT_TOL * (1.0 + float(np.max(np.abs(z))))
    free = p > simplex.face_eps
    shift = z[free] - p[free]
    assert shift.max() - shift.min() <= tol, (z, p)
    assert (z[~free] - simplex.face_eps <= shift.max() + tol).all(), (z, p)


def test_simplex_projection_of_a_far_point_is_on_the_simplex():
    """Every finite point, of any size up to 1e308, projects onto the simplex and meets the
    projection's KKT conditions, without a numpy warning."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        simplex = domains.Simplex(3)
        for x in ([1e308, -1e308, -1e308], [3e16, 0.3, -3e16], [-9.1e10, -2.6e11, -2.2e11],
                  [1e300, 1.0, 0.0], [1e308, 1e308, 0.0], [-1e308, -1e308, -1e308],
                  [-1e308, -1e308, 0.0]):
            _assert_kkt_projection(simplex, np.array(x))
        rng = CounterRNG(6)
        for q, face_eps in ((3, domains.INTERIOR_MARGIN), (5, 0.0)):
            simplex = domains.Simplex(q, face_eps=face_eps)
            for _ in range(100):
                z = rng.gaussian(q) * 10.0 ** float(16.0 * rng.uniform(1)[0] - 4.0)
                _assert_kkt_projection(simplex, z)


def test_ball_sample_of_a_zero_draw_is_the_center():
    # a Box-Muller draw is exactly 0 when its uniform is 0, with probability 2^-53 per pair
    class ZeroDraw:
        def gaussian(self, n):
            return np.zeros(n)

    ball = domains.EuclideanBall([1.0, -1.0], 0.5)
    assert ball.sample(ZeroDraw()).tolist() == [1.0, -1.0]


def test_samples_are_feasible():
    rng = CounterRNG(4)
    cases = [
        domains.FullSpace(2),
        domains.Box([0.0, -1.0], [2.0, 1.0]),
        domains.EuclideanBall([1.0, 1.0], 0.5),
        domains.Simplex(5),
        domains.AffineSlice([[1.0, -1.0, 0.0]], [0.0], domains.Box([-1.0] * 3, [1.0] * 3)),
    ]
    for dom in cases:
        for _ in range(25):
            assert dom.contains(dom.sample(rng), tol=1e-9)
