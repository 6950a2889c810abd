"""Mirror descent / prox / Newton problem builders and their curvature."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from surro import descent
from surro.config import CONFIG_DIR, assemble, load_config
from surro.descent import (
    _MemoStep,
    audit_prox_hypotheses,
    mirror_descent_problem,
    mirror_prox_problem,
    newton_problem,
)
from surro.domains import AffineSlice, Box, EuclideanBall, FullSpace, Simplex
from surro.errors import SurroError
from surro.mirror_maps import BallMap, MirrorMap, NegEntropyMap, QuadraticMap, bregman_project
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
    with pytest.raises(SurroError, match="does not meet the mirror-map domain"):
        mirror_descent_problem(f, NegEntropyMap(2), 0.1, Box([-2.0, -2.0], [-1.0, -1.0]))
    with pytest.raises(SurroError, match="dimension mismatch: objective 2, mirror map 3, domain 2"):
        mirror_descent_problem(f, QuadraticMap(3), 0.1, FullSpace(2))
    # centred on the sphere that bounds the map's ball
    with pytest.raises(SurroError, match="does not meet the mirror-map domain"):
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
    theta0 = np.full(3, 1.0 / 3.0)
    assert NegEntropyMap(3).closed_step(plane, theta0, 2.0, f.grad(theta0)) is None
    closed = mirror_descent_problem(f, NegEntropyMap(3), 2.0, Simplex(3, face_eps=0.0))
    trace = iterate(problem, theta0)
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


class _ScaledQuadraticMap(MirrorMap):
    """Phi(x) = c|x|^2 / 2, whose mirror step is the projected gradient step with
    step eta / c; it records each closed step it is asked for."""

    def __init__(self, q, c):
        self.q, self.c, self.steps = q, c, []

    def value(self, x):
        v = np.asarray(x, dtype=float)
        return 0.5 * self.c * float(v @ v) if self.in_domain(v) else math.inf

    def grad(self, x):
        return self.c * self._require(x)

    def hess(self, x):
        self._require(x)
        return self.c * np.eye(self.q)

    def in_domain(self, x):
        return bool(np.isfinite(x).all())

    def closed_step(self, domain, theta, eta, g):
        self.steps.append((eta, np.array(g)))
        return domain.project(theta - (eta / self.c) * g)


def test_a_custom_map_closed_step_serves_every_mirror_step_and_the_projection():
    f = ShiftedQuadratic(np.array([2.0, -0.4]))
    box, eta, theta = Box([0.0, -1.0], [1.0, 1.0]), 0.5, np.array([0.2, 0.6])

    def step(x):
        return box.project(x - (eta / 4.0) * f.grad(x))

    phi = _ScaledQuadraticMap(2, 4.0)
    descent_problem = mirror_descent_problem(f, phi, eta, box)
    phi.steps.clear()
    assert np.array_equal(inner_minimize(descent_problem, theta), step(theta))
    assert len(phi.steps) == 1 and np.array_equal(phi.steps[0][1], f.grad(theta))

    prox = mirror_prox_problem(f, phi, eta, box)
    phi.steps.clear()
    half = step(theta)
    out = inner_minimize(prox, theta)
    assert np.array_equal(out, box.project(theta - (eta / 4.0) * f.grad(half)))
    # the half step, then the full step with the gradient at the half step
    assert [used for used, _ in phi.steps] == [eta, eta]
    assert np.array_equal(phi.steps[0][1], f.grad(theta))
    assert np.array_equal(phi.steps[1][1], f.grad(half))

    phi.steps.clear()
    z = np.array([1.5, -3.0])
    assert np.array_equal(bregman_project(box, phi, z), [1.0, -1.0])
    assert len(phi.steps) == 1 and phi.steps[0][0] == 0.0 and not phi.steps[0][1].any()


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


def _hessian(fun, x):
    """Hessian of fun at the point x, by mpmath differentiation at the working precision."""
    n = len(x)
    h = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(i, n):
            order = [0] * n
            order[i] += 1
            order[j] += 1
            h[i, j] = h[j, i] = mpmath.diff(fun, x, tuple(order))
    return h


def _spectrum_range(fun, points):
    """Smallest and largest Hessian eigenvalue of fun over the points, at 50 digits."""
    with mpmath.workdps(50):
        eigs = [mpmath.eigsy(_hessian(fun, [mpmath.mpf(c) for c in p]), eigvals_only=True)
                for p in points]
        return min(min(e) for e in eigs), max(max(e) for e in eigs)


def _half_square_distance(target):
    return lambda *x: mpmath.fsum((c - t) ** 2 for c, t in zip(x, target)) / 2


# mpmath forms of the shipped mirror maps' Phi, built from the map's config spec
_PHI_MP = {
    "ball": lambda spec: lambda *x: (lambda s: s / (spec["r2"] - s))(mpmath.fsum(c * c for c in x)),
    "neg_entropy": lambda spec: lambda *x: mpmath.fsum(c * mpmath.log(c) for c in x),
}


def _disk_grid(spec):
    """The center and rings at quarter radii, eight points each, of a 2-d ball's config spec."""
    center, radius = np.array(spec["center"]), spec["radius"]
    rays = [np.array([math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)]) for k in range(8)]
    return [tuple(center)] + [tuple(center + r * radius * ray)
                              for r in (0.25, 0.5, 0.75, 1.0) for ray in rays]


def _simplex_grid(spec, n=8):
    """Barycentric lattice of step 1/n, kept 1e-3 inside the faces where the entropy is smooth."""
    q = spec["q"]
    corners = [k + (n - sum(k),) for k in itertools.product(range(n + 1), repeat=q - 1)
               if sum(k) <= n]
    return [tuple(1e-3 + (1.0 - q * 1e-3) * k / n for k in c) for c in corners]


_GRIDS = {"ball": _disk_grid, "simplex": _simplex_grid}


# the shipped Mirror Prox setups: mirror_prox_ball and E3's entropy prox on entropy_simplex_md
@pytest.mark.parametrize("name", ["mirror_prox_ball", "entropy_simplex_md"])
def test_declared_gamma_and_beta_bound_the_hessian_spectra(name, monkeypatch):
    """gamma is at most the map's smallest Hessian eigenvalue on the domain and beta at least
    the objective's largest, so eta < gamma/beta is the paper's Mirror Prox condition."""
    cfg = dict(load_config(CONFIG_DIR / f"{name}.json"), algorithm="mirror_prox")
    audited = []
    monkeypatch.setattr(descent, "audit_prox_hypotheses",
                        lambda *args: audited.append(args) or audit_prox_hypotheses(*args))
    assemble(cfg)  # builds the objective, map, eta and domain as the config states them
    [(f, phi, eta, domain)] = audited
    grid = _GRIDS[cfg["domain"]["type"]](cfg["domain"])
    assert all(domain.contains(np.array(p)) for p in grid)
    gamma, beta = audit_prox_hypotheses(f, phi, eta, domain)
    phi_mp = _PHI_MP[cfg["mirror_map"]["type"]](cfg["mirror_map"])
    phi_lowest, _ = _spectrum_range(phi_mp, grid)
    _, f_highest = _spectrum_range(_half_square_distance(f.target), grid)
    slack = 1e-30  # of the 50-digit differentiation, far below a double's resolution
    holds = lambda g, b: g <= phi_lowest + slack and b >= f_highest - slack
    assert holds(gamma, beta)
    # the grid is fine enough to catch a constant misdeclared by 10%
    assert not holds(gamma, 0.9 * beta) and not holds(1.1 * gamma, beta)


def test_half_step_memo_keeps_at_most_4097_points():
    memo = _MemoStep(SurrogateProblem(domain=FullSpace(1), eval_q=None, grad2=None,
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
    with pytest.raises(SurroError, match=r"Hessian is singular at \[1\.\]"):
        prob.closed_form_step(np.array([1.0]))
