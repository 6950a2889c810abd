"""The numeric mirror steps against two references.

Bitwise: the ball map with one squared-norm check, the theta-anchor memo of
the mirror surrogates and the identity-basis Newton solve must reproduce the
generic formulas exactly, so every iterate is compared with `==`.

Radial closed form: the ball map is radial and the shipped balls are centered
at the origin, so the mirror step argmin eta g'u + D_Phi(u, theta) over
|u| <= R is u = t c/|c| with c = grad Phi(theta) - eta g and t = min(rho, R),
where rho solves 2 r2 rho / (r2 - rho^2)^2 = |c|.  The numeric inner solves
are checked against it.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from surro import linalg
from surro.config import assemble, load_config
from surro.descent import _MemoStep, mirror_descent_problem, mirror_prox_problem
from surro.domains import EuclideanBall, FullSpace
from surro.mirror_maps import (
    BallMap,
    MirrorError,
    MirrorMap,
    OutsideMirrorDomain,
    bregman,
    bregman_project,
)
from surro.objectives import CustomObjective, ShiftedQuadratic
from surro.rng import CounterRNG
from surro.surrogate import (
    InnerSolveFailed,
    StopRule,
    SurrogateProblem,
    inner_minimize,
    iterate,
    minimize_smooth,
)

CONFIGS = Path(__file__).resolve().parents[1] / "src" / "surro" / "configs"


class _GenericBallMap(BallMap):
    """The ball map through the generic MirrorMap._require, recomputing |x|^2 per call."""

    def _require(self, x):
        return MirrorMap._require(self, x)

    def value(self, x):
        v = self._require(x)
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


class _ReducedBall(EuclideanBall):
    """A ball whose direction basis is -I, so minimize_smooth takes the T'HT path.

    Negation is exact and LU solves are odd in the right-hand side, so this
    path does the arithmetic of the reduction with T = I bit for bit."""

    def direction_basis(self):
        return -np.eye(self.q)


def _generic_mirror_problem(f, phi, eta, domain, at, **fields):
    """The mirror surrogate with every theta term recomputed on each call."""

    def eval_q(theta, u):
        return eta * float(f.grad(at(theta)) @ u) + bregman(phi, u, theta)

    def grad2(theta, u):
        return eta * f.grad(at(theta)) + phi.grad(u) - phi.grad(theta)

    return SurrogateProblem(q=f.q, domain=domain, eval_q=eval_q, grad2=grad2,
                            hess22=lambda theta, u: phi.hess(u), pull_inside=phi.pull_inside,
                            **fields)


def _generic_prox(target, r2, eta, radius):
    f = ShiftedQuadratic(target)
    phi = _GenericBallMap(f.q, r2=r2)
    domain = _ReducedBall(np.zeros(f.q), radius)
    half_step = _MemoStep(_generic_mirror_problem(f, phi, eta, domain, lambda theta: theta))
    return _generic_mirror_problem(f, phi, eta, domain, half_step, aux_step=half_step)


def _assert_same_run(fast, generic, start, stop):
    got, want = iterate(fast, start, stop), iterate(generic, start, stop)
    assert got.stop_reason == want.stop_reason
    assert len(got) == len(want)
    # bytes, so that -0.0 against 0.0 shows too
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.iterates, want.iterates))


def test_e9_runs_are_bitwise_the_generic_formulas():
    target, r2, eta, radius = np.array([0.3, -0.2]), 4.0, 0.4, 1.0  # as in E9
    feasible = EuclideanBall(np.zeros(2), radius)
    fast = mirror_prox_problem(ShiftedQuadratic(target), BallMap(2, r2=r2), eta, feasible)
    generic = _generic_prox(target, r2, eta, radius)
    rng = CounterRNG(2024)
    starts = [np.array([1.0 - 1e-3, 0.0]), np.array([-(1.0 - 1e-3), 0.0])]
    while len(starts) < 8:
        starts.append(feasible.sample(rng))
    for start in starts:
        _assert_same_run(fast, generic, start, StopRule(max_iters=3000, residual_tol=1e-14))


def test_mirror_prox_ball_run_is_bitwise_the_generic_formulas():
    cfg = load_config(CONFIGS / "mirror_prox_ball.json")
    assert cfg["objective"]["type"] == "shifted_quadratic"
    assert cfg["mirror_map"]["type"] == "ball" and cfg["domain"]["type"] == "ball"
    assert not any(cfg["domain"]["center"])
    run = assemble(cfg)
    generic = _generic_prox(np.array(cfg["objective"]["target"], dtype=float),
                            cfg["mirror_map"]["r2"], cfg["eta"], cfg["domain"]["radius"])
    _assert_same_run(run.problem, generic, run.theta0, run.stop)


@pytest.mark.parametrize("prox", [False, True])
def test_anchor_memo_is_never_stale(prox):
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
        for method in (phi.value, phi.grad, phi.hess, phi._require):
            with pytest.raises(OutsideMirrorDomain, match="outside the mirror-map domain"):
                method(x)
    with np.errstate(over="ignore"):  # |x|^2 overflows to inf, which is not < r2
        with pytest.raises(OutsideMirrorDomain):
            phi.grad(np.array([1e200, 0.0]))
    for bad in (np.zeros(3), np.zeros((1, 2)), 0.5):
        with pytest.raises(MirrorError, match="expected a vector of length 2"):
            phi.value(bad)
    assert BallMap(1, r2=4.0).value(0.5) == _GenericBallMap(1, r2=4.0).value([0.5])


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
