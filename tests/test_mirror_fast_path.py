"""The mirror steps against references that share no code with the numeric solve.

Formulas: the ball map with one squared-norm check, the map's surrogate, which
computes its theta terms once per theta, and the identity-basis Newton solve
must reproduce the generic formulas exactly, so those values are compared with
`==`, as is `linalg.vector_norm` with `np.linalg.norm`.

Radial closed form: the ball map is radial and the shipped balls are centered
at the origin, so the mirror step argmin eta g'u + D_Phi(u, theta) over
|u| <= R is u = t c/|c| with c = grad Phi(theta) - eta g and t = min(rho, R),
where rho solves 2 r2 rho / (r2 - rho^2)^2 = |c|.  Every step of E9's 8
Mirror Prox runs (the shipped `mirror_prox_ball` start among them) is checked
against it, the half step and then the full step, and so are random numeric
steps and Bregman projections.  Those runs end at theta*, the quadratic's
target, which lies inside the ball.

Exact minimizers: a Newton step on a quadratic through any direction basis
lands on np.linalg.solve(h, c); an entropy step on the simplex is
u_i proportional to theta_i exp(-eta g_i), so log(u_i/theta_i) + eta g_i is the
same for every i and the u_i sum to 1.

Each tolerance sits beside the largest gap measured for it on the clean code.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from surro import linalg
from surro.config import CONFIG_DIR, assemble, load_config
from surro.descent import _MemoStep, mirror_descent_problem, mirror_prox_problem
from surro.domains import EuclideanBall, FullSpace, Simplex, as_vector
from surro.errors import SurroError
from surro.mirror_maps import BallMap, MirrorMap, NegEntropyMap, bregman, bregman_project
from surro.objectives import CustomObjective, ShiftedQuadratic
from surro.rng import CounterRNG
from surro.surrogate import (
    InnerSolveFailed,
    StopReason,
    SurrogateProblem,
    inner_minimize,
    iterate,
    minimize_smooth,
)


class _GenericBallMap(BallMap):
    """The ball map through the generic MirrorMap._require, recomputing |x|^2 per call,
    with the Hessian as the array sum a I + b vv'."""

    _require = MirrorMap._require

    def value(self, x):
        v = as_vector(x, self.q)
        if not self.in_domain(v):
            return math.inf
        s = float(v @ v)
        return s / (self.r2 - s)

    def grad(self, x):
        v = self._require(x)
        s = float(v @ v)
        return 2.0 * self.r2 * v / (self.r2 - s) ** 2

    def hess(self, x):
        v = self._require(x)
        s = float(v @ v)
        den = self.r2 - s
        return (2.0 * self.r2 / den**2) * np.eye(self.q) + (8.0 * self.r2 / den**3) * np.outer(
            v, v
        )


def _generic_mirror_problem(f, phi, eta, domain, at):
    """The mirror surrogate with every theta term recomputed on each call."""

    def eval_q(theta, u):
        return eta * float(f.grad(at(theta)) @ u) + bregman(phi, u, theta)

    def grad2(theta, u):
        return eta * f.grad(at(theta)) + phi.grad(u) - phi.grad(theta)

    return SurrogateProblem(domain=domain, eval_q=eval_q, grad2=grad2,
                            hess22=lambda theta, u: phi.hess(u))


@pytest.mark.parametrize("prox", [False, True])
def test_anchor_memo_is_never_stale(prox):
    """Q and its gradient at interleaved thetas, one of them equal bytes in another
    array, are the generic formulas at each: no theta term is carried over."""
    target, r2, eta = np.array([0.3, -0.2]), 4.0, 0.4
    f, dom = ShiftedQuadratic(target), EuclideanBall(np.zeros(2), 1.0)
    build = mirror_prox_problem if prox else mirror_descent_problem
    fast = build(f, BallMap(2, r2=r2), eta, dom)
    phi = _GenericBallMap(2, r2=r2)
    at = _MemoStep(_generic_mirror_problem(f, phi, eta, dom, lambda t: t)) if prox else None
    generic = _generic_mirror_problem(f, phi, eta, dom, at or (lambda t: t))
    rng = CounterRNG(7)
    thetas = [dom.sample(rng) for _ in range(4)]
    thetas.append(thetas[0].copy())  # equal bytes in another array
    for step in range(40):
        theta, other = thetas[step % 5], thetas[(3 * step + 1) % 5]
        u = dom.sample(rng)
        assert fast.eval_q(theta, u) == generic.eval_q(theta, u)
        assert np.array_equal(fast.grad2(other, u), generic.grad2(other, u))
        assert np.array_equal(fast.grad2(theta, u), generic.grad2(theta, u))
        assert fast.eval_q(other, u) == generic.eval_q(other, u)


def test_ball_map_rejects_non_finite_overflowing_and_misshaped_points():
    phi = BallMap(2, r2=4.0)
    outside = [np.array([np.nan, 0.0]), np.array([np.inf, 0.0]), np.array([0.0, -np.inf]),
               np.array([np.nan, np.inf]), np.array([2.0, 0.0])]
    for x in outside:
        assert phi.value(x) == math.inf
        for method in (phi.grad, phi.hess, phi._require):
            with pytest.raises(SurroError, match="outside the mirror-map domain"):
                method(x)
    with np.errstate(over="ignore"):  # |x|^2 overflows to inf, which is not < r2
        assert phi.value(np.array([1e200, 0.0])) == math.inf
        with pytest.raises(SurroError, match="outside the mirror-map domain"):
            phi.grad(np.array([1e200, 0.0]))
    for bad in (np.zeros(3), np.zeros((1, 2)), 0.5):
        with pytest.raises(SurroError, match="expected a vector of length 2"):
            phi.value(bad)
    assert BallMap(1, r2=4.0).value(0.5) == _GenericBallMap(1, r2=4.0).value([0.5])


def test_ball_map_hessian_is_bitwise_the_earlier_formula():
    rng = CounterRNG(3)
    points = [np.array(v) for v in ([0.0, 0.5], [-0.0, 0.5], [0.3, -0.0], [-0.2, 0.0],
                                    [0.0, -0.0], [-0.0, -0.0], [1.9, -0.0])]
    points += [EuclideanBall(np.zeros(q), 1.999).sample(rng) for q in (1, 2, 3) for _ in range(50)]
    for v in points:
        q = v.shape[0]
        fast, earlier = BallMap(q, r2=4.0), _GenericBallMap(q, r2=4.0)
        assert fast.hess(v).tobytes() == earlier.hess(v).tobytes()


def test_identity_basis_newton_step_keeps_the_signed_zeros_of_the_reduction():
    class ReducedSpace(FullSpace):
        def direction_basis(self):
            return -np.eye(self.q)

    # x0 and the gradient carry a -0.0 and a +0.0 in the first coordinate, so an
    # unlifted Newton direction would keep -0.0 there and the step would return -0.0
    target, x0 = np.array([-0.0, 1.0]), np.array([-0.0, 0.25])
    outs = [minimize_smooth(dom, lambda x: 0.5 * float((x - target) @ (x - target)),
                            lambda x: x - target, lambda x: np.eye(2), x0)
            for dom in (FullSpace(2), ReducedSpace(2))]
    assert outs[0].tobytes() == outs[1].tobytes()
    assert outs[0].tobytes() == np.array([0.0, 1.0]).tobytes()


@pytest.mark.parametrize("basis", [
    [[1.0, -0.0], [0.0, 1.0]],  # the identity, with a signed zero
    [[0.6, -0.8], [0.8, 0.6]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], ids=["signed_identity", "rotation", "permutation", "reflection"])
def test_basis_newton_step_equals_the_re_evaluating_solve(basis):
    """Every Newton step goes through the direction basis; on a quadratic it lands
    on the minimizer np.linalg.solve(h, c) whatever the basis."""

    class Basis(FullSpace):
        def direction_basis(self):
            return np.array(basis)

    rng = CounterRNG(19)
    for _ in range(20):
        m = rng.gaussian(4).reshape(2, 2)
        h = m @ m.T + 0.1 * np.eye(2)
        c = rng.gaussian(2)
        got = minimize_smooth(Basis(2), lambda x: 0.5 * float(x @ h @ x) - float(c @ x),
                              lambda x: h @ x - c, lambda x: h, rng.gaussian(2))
        want = np.linalg.solve(h, c)
        # largest gap on the clean code: 5.9e-15 (1 + max|want|) over the 80 solves
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * (1.0 + np.max(np.abs(want))))


def test_vector_norm_is_bitwise_np_linalg_norm():
    rng = np.random.default_rng(0)
    for q in (1, 2, 3, 8, 33):
        for _ in range(200):
            x = rng.standard_normal(q) * 10.0 ** rng.integers(-150, 150)
            assert linalg.vector_norm(x) == float(np.linalg.norm(x))
    assert math.isnan(linalg.vector_norm(np.array([np.nan, 1.0])))
    assert linalg.vector_norm(np.array([-np.inf, 1.0])) == math.inf


def _radial_step(r2, reach, theta, g, eta):
    """argmin over |u| <= reach of eta g'u + D_Phi(u, theta) for the ball map, in closed form."""
    c = 2.0 * r2 * theta / (r2 - float(theta @ theta)) ** 2 - eta * g
    norm_c = math.sqrt(float(c @ c))
    lo, hi = 0.0, math.sqrt(r2)
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # |grad Phi| = 2 r2 rho / (r2 - rho^2)^2 increases
        if 2.0 * r2 * mid / (r2 - mid * mid) ** 2 < norm_c:
            lo = mid
        else:
            hi = mid
    return min(lo, reach) * c / norm_c


def _ball_draws(rng, n):
    """(q, r2, reach, theta): a ball of radius reach inside the map's ball of squared
    radius r2, and a point of it; two in three points lie within 1e-1..1e-9 of its boundary."""
    for i in range(n):
        q = 2 + i % 2
        r2 = 1.0 + 8.0 * float(rng.uniform(1)[0])
        reach = math.sqrt(r2) * (0.3 + 0.69 * float(rng.uniform(1)[0]))
        u = float(rng.uniform(1)[0])
        depth = u if i % 3 == 0 else 1.0 - 10.0 ** -(1.0 + 8.0 * u)
        d = rng.gaussian(q)
        yield q, r2, reach, reach * depth * d / linalg.vector_norm(d)


ORACLE_TOL = 1e-10  # inner solves stop at a 1e-12 relative projected-gradient residual


@pytest.mark.filterwarnings("ignore:step size eta")
def test_mirror_steps_match_the_radial_closed_form():
    """Every numeric step that returns matches the closed form.

    Some steps that end on the feasible boundary under a strong outward pull
    reach INNER_CAP instead: projected Newton only converges linearly along
    the active sphere.  Each such stall must be a boundary step, and while
    any occurs the test reports the known defect as an expected failure."""
    rng = CounterRNG(11)
    stalled = 0
    for q, r2, reach, theta in _ball_draws(rng, 60):
        eta = 0.05 + 2.0 * float(rng.uniform(1)[0])
        g = rng.gaussian(q) * 10.0 ** float(2.0 * rng.uniform(1)[0] - 1.0)
        dom, phi = EuclideanBall(np.zeros(q), reach), BallMap(q, r2=r2)
        linear = CustomObjective(q, lambda x, g=g: float(g @ x), lambda x, g=g: g)
        f = ShiftedQuadratic(g)
        half = _radial_step(r2, reach, theta, f.grad(theta), eta)
        descent = mirror_descent_problem(linear, phi, eta, dom)
        prox = mirror_prox_problem(f, phi, eta, dom)
        # the closed-form step first, then any closed-form solve it is built on
        for problem, solves in ((descent, [_radial_step(r2, reach, theta, g, eta)]),
                                (prox, [_radial_step(r2, reach, theta, f.grad(half), eta), half])):
            try:
                step = inner_minimize(problem, theta)
            except InnerSolveFailed:
                assert any(math.isclose(linalg.vector_norm(u), reach) for u in solves)
                stalled += 1
                continue
            np.testing.assert_allclose(step, solves[0], rtol=0, atol=ORACLE_TOL)
    if stalled:
        pytest.xfail(f"{stalled} of 120 numeric mirror steps stalled on the active boundary")


def test_bregman_projection_on_the_ball_matches_the_radial_closed_form():
    rng = CounterRNG(5)
    outside = 0
    for q, r2, reach, theta in _ball_draws(rng, 60):
        zeta = theta * (math.sqrt(r2) / reach)  # the same depth in the map's ball
        out = bregman_project(EuclideanBall(np.zeros(q), reach), BallMap(q, r2=r2), zeta)
        want = _radial_step(r2, reach, zeta, np.zeros(q), 0.0)
        np.testing.assert_allclose(out, want, rtol=0, atol=ORACLE_TOL)
        outside += linalg.vector_norm(zeta) > reach
    assert 0 < outside < 60


def test_a_step_accepted_after_both_line_searches_stagnate_matches_the_radial_closed_form():
    """The half step of `_ball_draws` draw 59 at seed 13, 3.2e-5 inside the boundary of a
    ball of radius 2.86: both line searches of the numeric solve stagnate at a residual
    of a few 1e-12 relative, which the solve accepts as noise."""
    r2, reach, eta = 8.449854363440515, 2.8556536333023277, 0.23118523388290474
    theta = np.array([2.456876514142888, -0.0984349398323085, -1.4521797219591228])
    g = theta - np.array([-0.19174500874944683, 0.07129577767097181, 0.025386567970299943])
    linear = CustomObjective(3, lambda x: float(g @ x), lambda x: g)
    problem = mirror_descent_problem(linear, BallMap(3, r2=r2), eta, EuclideanBall(np.zeros(3), reach))
    # gap on the clean code: 2.2e-16
    np.testing.assert_allclose(inner_minimize(problem, theta), _radial_step(r2, reach, theta, g, eta),
                               rtol=0, atol=ORACLE_TOL)


@pytest.fixture(scope="module")
def e9_runs():
    """The shipped mirror_prox_ball problem and E9's 8 runs of it, the shipped start first."""
    run = assemble(load_config(CONFIG_DIR / "mirror_prox_ball.json"))
    rng = CounterRNG(2024)  # E9's starts: the two near-boundary points, then 6 draws
    starts = [np.array([1.0 - 1e-3, 0.0]), np.array([-(1.0 - 1e-3), 0.0])]
    while len(starts) < 8:
        starts.append(run.problem.domain.sample(rng))
    assert starts[0].tobytes() == run.theta0.tobytes()
    return run, [iterate(run.problem, start, run.stop) for start in starts]


def test_e9_mirror_prox_steps_match_the_radial_closed_form(e9_runs):
    """Each step is the closed-form half step from theta, then the closed-form full
    step from theta at the gradient of that half step."""
    cfg = load_config(CONFIG_DIR / "mirror_prox_ball.json")
    r2, reach, eta = cfg["mirror_map"]["r2"], cfg["domain"]["radius"], cfg["eta"]
    f = ShiftedQuadratic(np.array(cfg["objective"]["target"], dtype=float))
    _, traces = e9_runs
    steps = 0
    for trace in traces:
        assert trace.stop_reason is StopReason.CONVERGED
        for theta, nxt in zip(trace.iterates, trace.iterates[1:]):
            half = _radial_step(r2, reach, theta, f.grad(theta), eta)
            # largest gap on the clean code: 2.1e-12 over the 934 steps
            np.testing.assert_allclose(nxt, _radial_step(r2, reach, theta, f.grad(half), eta),
                                       rtol=0, atol=1e-11)
            steps += 1
    assert steps > 900


def test_e9_mirror_prox_runs_end_at_the_target(e9_runs):
    """theta* is the quadratic's target (0.3, -0.2), inside the unit ball, so the
    minimizer over the ball is known exactly."""
    run, traces = e9_runs
    assert run.theta_star.tolist() == [0.3, -0.2]
    for trace in traces:
        # largest error on the clean code: 1.25e-11 over the 8 runs
        assert linalg.vector_norm(trace.final - run.theta_star) <= 2e-11


def test_entropy_simplex_steps_meet_the_kl_first_order_condition():
    """The entropy step u = argmin eta g'u + KL(u, theta) on the simplex is
    u_i = theta_i exp(-eta g_i) / Z: log(u_i / theta_i) + eta g_i = -log Z for every i."""
    cfg = load_config(CONFIG_DIR / "entropy_simplex_md.json")
    run = assemble(cfg)
    f = ShiftedQuadratic(np.array(cfg["objective"]["target"], dtype=float))
    trace = iterate(run.problem, run.theta0, run.stop)
    assert trace.stop_reason is StopReason.CONVERGED and len(trace) > 100
    for theta, u in zip(trace.iterates, trace.iterates[1:]):
        v = np.log(u / theta) + cfg["eta"] * f.grad(theta)
        # largest gaps on the clean code: 4.0e-16 and 2.2e-16 over the 527 steps
        assert float(np.max(v) - np.min(v)) <= 4e-15
        assert abs(float(np.sum(u)) - 1.0) <= 1e-15


def test_entropy_step_stays_finite_when_eta_g_spans_1000():
    """exp(-eta g) would overflow for the most negative g; the step's shift keeps it
    finite, and exp(-1000) underflows to 0, so two coordinates sit on the face bound."""
    simplex = Simplex(3)
    eps = simplex.face_eps
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = NegEntropyMap(3).closed_step(simplex, np.array([0.2, 0.3, 0.5]), 1.0,
                                           np.array([-1000.0, -500.0, 0.0]))
    assert simplex.contains(out)
    np.testing.assert_allclose(out, [1.0 - 2.0 * eps, eps, eps], rtol=1e-15, atol=0)
