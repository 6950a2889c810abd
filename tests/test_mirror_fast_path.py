"""The numeric mirror steps against two references.

Bitwise: the ball map with one squared-norm check, the map's surrogate, which
computes its theta terms once per theta, and the identity-basis Newton solve
must reproduce the generic formulas exactly, so every iterate is compared with
`==`.  The inner
solve itself, with its per-point checks and its coercions of float vectors,
is compared byte for byte with a copy of the earlier solve that uses numpy's
reductions and re-wraps and pulls every projected point into the map's open
ball.  The drawn feasible
balls lie inside the map's ball with room to spare, where that pull moves no
point and the surrogate's +inf off the map is never met.

Radial closed form: the ball map is radial and the shipped balls are centered
at the origin, so the mirror step argmin eta g'u + D_Phi(u, theta) over
|u| <= R is u = t c/|c| with c = grad Phi(theta) - eta g and t = min(rho, R),
where rho solves 2 r2 rho / (r2 - rho^2)^2 = |c|.  The numeric inner solves
are checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest

from surro import linalg
from surro.config import CONFIG_DIR, assemble, load_config
from surro.descent import _MemoStep, mirror_descent_problem, mirror_prox_problem
from surro.domains import INTERIOR_MARGIN, EuclideanBall, FullSpace, Simplex
from surro.errors import SurroError
from surro.mirror_maps import BallMap, NegEntropyMap, bregman, bregman_project
from surro.objectives import CustomObjective, ShiftedQuadratic
from surro.rng import CounterRNG
from surro.surrogate import (
    ARMIJO_C,
    INNER_CAP,
    INNER_TOL,
    InnerSolveFailed,
    SolveFailure,
    StopRule,
    SurrogateProblem,
    inner_minimize,
    iterate,
    minimize_smooth,
)


def _converting_as_vector(x, q):
    """domains.as_vector converting every input, the float vectors it returns as is too."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.shape != (q,):
        raise SurroError(f"expected a vector of length {q}, got shape {v.shape}")
    return v


class _GenericBallMap(BallMap):
    """The ball map through the generic MirrorMap._require, recomputing |x|^2 per call,
    with the Hessian as the array sum a I + b vv', and the earlier solves' pull_inside,
    which moved a point of the map's closed ball into the open ball by a relative margin."""

    def _require(self, x):
        v = _converting_as_vector(x, self.q)
        if not self.in_domain(v):
            raise SurroError(f"point {v} is outside the mirror-map domain")
        return v

    def value(self, x):
        v = _converting_as_vector(x, self.q)
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

    def pull_inside(self, x):
        v = np.atleast_1d(np.asarray(x, dtype=float))
        s = float(v @ v)
        cap = self.r2 * (1.0 - INTERIOR_MARGIN)
        if s >= cap:
            v = v * np.sqrt(cap / s)
        return v


class _ReducedBall(EuclideanBall):
    """A ball whose direction basis is -I, so minimize_smooth takes the T'HT path.

    Negation is exact and LU solves are odd in the right-hand side, so this
    path does the arithmetic of the reduction with T = I bit for bit."""

    def direction_basis(self):
        return -np.eye(self.q)


@dataclass(frozen=True)
class _PullingProblem(SurrogateProblem):
    """A surrogate problem that carries the earlier solves' pull_inside."""

    pull_inside: Optional[Callable] = None


def _generic_mirror_problem(f, phi, eta, domain, at, **fields):
    """The mirror surrogate with every theta term recomputed on each call; the
    ball reference pulls points inside the map's ball as the earlier solve did."""

    def eval_q(theta, u):
        return eta * float(f.grad(at(theta)) @ u) + bregman(phi, u, theta)

    def grad2(theta, u):
        return eta * f.grad(at(theta)) + phi.grad(u) - phi.grad(theta)

    return _PullingProblem(domain=domain, eval_q=eval_q, grad2=grad2,
                           hess22=lambda theta, u: phi.hess(u),
                           pull_inside=getattr(phi, "pull_inside", None), **fields)


def _generic_prox(target, r2, eta, radius):
    f = ShiftedQuadratic(target)
    phi = _GenericBallMap(f.q, r2=r2)
    domain = _ReducedBall(np.zeros(f.q), radius)
    half_step = _MemoStep(_generic_mirror_problem(f, phi, eta, domain, lambda theta: theta))
    return _generic_mirror_problem(f, phi, eta, domain, half_step)


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
    cfg = load_config(CONFIG_DIR / "mirror_prox_ball.json")
    assert cfg["objective"]["type"] == "shifted_quadratic"
    assert cfg["mirror_map"]["type"] == "ball" and cfg["domain"]["type"] == "ball"
    assert not any(cfg["domain"]["center"])
    run = assemble(cfg)
    generic = _generic_prox(np.array(cfg["objective"]["target"], dtype=float),
                            cfg["mirror_map"]["r2"], cfg["eta"], cfg["domain"]["radius"])
    _assert_same_run(run.problem, generic, run.theta0, run.stop)


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
    """Every Newton step goes through the direction basis; on the identity it keeps
    the bits of the reference's full-coordinate solve."""

    class Basis(FullSpace):
        def direction_basis(self):
            return np.array(basis)

    rng = CounterRNG(19)
    for _ in range(20):
        m = rng.gaussian(4).reshape(2, 2)
        h = m @ m.T + 0.1 * np.eye(2)
        c = rng.gaussian(2)
        args = (lambda x: 0.5 * float(x @ h @ x) - float(c @ x), lambda x: h @ x - c,
                lambda x: h, rng.gaussian(2))
        got = minimize_smooth(Basis(2), *args)
        assert got.tobytes() == _re_evaluating_minimize_smooth(Basis(2), *args, None, []).tobytes()


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


# --- the inner solve against a copy of the solve that re-evaluates and re-wraps ---


def _re_evaluating_minimize_smooth(domain, fun, grad, hess, x0, pull_inside, residual_accepts):
    """minimize_smooth with numpy's dispatching reductions, an identity matrix
    built per call and a full-coordinate Newton solve on the identity basis, on
    domains that are never degenerate.  Its acceptance rule and its descent test
    on the Newton direction are minimize_smooth's.  residual_accepts counts the
    steps the residual test takes."""

    def project(x):
        y = domain.project(x)
        return y if pull_inside is None else pull_inside(y)

    def residual_at(point, gradient):
        return linalg.vector_norm(point - project(point - gradient))

    def backtrack(x, fx, g, res, direction, halvings):
        t = 1.0
        for _ in range(halvings):
            xn = project(x + t * direction)
            if not np.all(np.isfinite(xn)) or np.array_equal(xn, x):
                t *= 0.5
                continue
            fn = fun(xn)
            if np.isfinite(fn) and fn <= fx + ARMIJO_C * float(g @ (xn - x)):
                return xn, fn
            if np.isfinite(fn) and fn <= fx + 1e-12 * (1.0 + abs(fx)):
                resn = residual_at(xn, grad(xn))
                if resn <= res * (1.0 - 1e-6):
                    residual_accepts.append(resn)
                    return xn, fn
            t *= 0.5
        return None

    x = project(np.asarray(x0, dtype=float))
    fx = fun(x)
    tangent = domain.direction_basis()
    identity_basis = np.array_equal(tangent, np.eye(x.shape[0]))
    prev_x = None
    prev_g = None
    for _ in range(INNER_CAP):
        g = grad(x)
        residual = residual_at(x, g)
        scale = 1.0 + float(np.max(np.abs(x)))
        if residual <= INNER_TOL * scale:
            return x

        candidate = None
        if hess is not None:
            try:
                if identity_basis:
                    direction = np.linalg.solve(hess(x), -g) + 0.0
                else:
                    reduced = tangent.T @ hess(x) @ tangent
                    direction = tangent @ np.linalg.solve(reduced, -(tangent.T @ g))
            except np.linalg.LinAlgError:
                direction = None
            if direction is not None and np.all(np.isfinite(direction)):
                if float(g @ direction) < 0:
                    candidate = backtrack(x, fx, g, residual, direction, halvings=30)

        if candidate is None:
            if prev_x is not None:
                s = x - prev_x
                y = g - prev_g
                sy = float(s @ y)
                t = float(s @ s) / sy if sy > 0 else 1.0 / (1.0 + linalg.vector_norm(g))
                t = min(max(t, 1e-12), 1e12)
            else:
                t = 1.0 / (1.0 + linalg.vector_norm(g))
            candidate = backtrack(x, fx, g, residual, -t * g, halvings=60)

        prev_x, prev_g = x, g
        if candidate is None:
            if residual <= 100.0 * INNER_TOL * scale:
                return x
            raise SolveFailure(f"no descent direction found (residual {residual:.3e})")
        x, fx = candidate

    raise SolveFailure(f"iteration cap {INNER_CAP} reached (residual {residual:.3e})")


class _ConvertingBall(EuclideanBall):
    """EuclideanBall with every point converted on entry."""

    def contains(self, x, tol=1e-12):
        r = linalg.vector_norm(_converting_as_vector(x, self.q) - self.center)
        return r <= self.radius + tol

    def project(self, x):
        v = _converting_as_vector(x, self.q)
        d = v - self.center
        r = linalg.vector_norm(d)
        if r <= self.radius:
            return v.copy()
        return self.center + d * (self.radius / r)


def _re_evaluating_inner_minimize(problem, theta, residual_accepts):
    th = _converting_as_vector(theta, problem.q)
    assert problem.domain.contains(th)
    try:
        return _re_evaluating_minimize_smooth(
            problem.domain,
            lambda x: problem.eval_q(th, x),
            lambda x: np.atleast_1d(np.asarray(problem.grad2(th, x), dtype=float)),
            lambda x: problem.hess22(th, x),
            th,
            problem.pull_inside,
            residual_accepts,
        )
    except InnerSolveFailed:
        raise  # the prox half step's failure, already naming its theta
    except SolveFailure as exc:
        raise InnerSolveFailed(f"inner minimization failed at theta={th}: {exc}") from exc


def _outcome(solve, *args):
    """The returned bytes, or the type and message of the solve failure."""
    try:
        return solve(*args).tobytes()
    except SolveFailure as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.filterwarnings("ignore:step size eta")
def test_inner_solves_are_bitwise_the_re_evaluating_solve():
    """200 mirror descent and prox steps on random balls, two in three near the boundary.

    Stalls on the active sphere (the xfail above) must fail with the same
    message, residual included."""
    rng = CounterRNG(13)
    accepts: list[float] = []
    outcomes = []
    for q, r2, reach, theta in _ball_draws(rng, 100):
        eta = 0.05 + 2.0 * float(rng.uniform(1)[0])
        g = rng.gaussian(q) * 10.0 ** float(2.0 * rng.uniform(1)[0] - 1.0)
        linear = CustomObjective(q, lambda x, g=g: float(g @ x), lambda x, g=g: g)
        f = ShiftedQuadratic(g)
        phi, dom = BallMap(q, r2=r2), EuclideanBall(np.zeros(q), reach)
        ref_phi, ref_dom = _GenericBallMap(q, r2=r2), _ConvertingBall(np.zeros(q), reach)

        half_steps = {}
        ref_half = _generic_mirror_problem(f, ref_phi, eta, ref_dom, lambda t: t)

        def at(t):
            key = t.tobytes()
            if key not in half_steps:
                half_steps[key] = _re_evaluating_inner_minimize(ref_half, t, accepts)
            return half_steps[key]

        for fast, ref in (
            (mirror_descent_problem(linear, phi, eta, dom),
             _generic_mirror_problem(linear, ref_phi, eta, ref_dom, lambda t: t)),
            (mirror_prox_problem(f, phi, eta, dom),
             _generic_mirror_problem(f, ref_phi, eta, ref_dom, at)),
        ):
            got = _outcome(inner_minimize, fast, theta)
            assert got == _outcome(_re_evaluating_inner_minimize, ref, theta, accepts)
            outcomes.append(got)
    failed = sum(isinstance(o, str) for o in outcomes)
    assert len(outcomes) == 200 and 0 < failed < 40, failed
    assert len(accepts) > 0  # the draws reach the residual test


def _re_evaluating_bregman_project(domain, phi, zeta):
    """The solve on D_Phi(x, zeta) from zeta: the mirror step's objective at g = 0."""
    z = phi._require(zeta)
    phi_z, target = phi.value(z), phi.grad(z)
    return _re_evaluating_minimize_smooth(domain,
                                          lambda x: float(phi.value(x) - phi_z - target @ (x - z)),
                                          lambda x: phi.grad(x) - target, phi.hess,
                                          z, phi.pull_inside, [])


def test_bregman_projections_are_bitwise_the_re_evaluating_solve():
    rng = CounterRNG(17)
    for q, r2, reach, theta in _ball_draws(rng, 60):
        zeta = theta * (math.sqrt(r2) / reach)
        got = _outcome(bregman_project, EuclideanBall(np.zeros(q), reach), BallMap(q, r2=r2), zeta)
        want = _outcome(_re_evaluating_bregman_project, _ConvertingBall(np.zeros(q), reach),
                        _GenericBallMap(q, r2=r2), zeta)
        assert got == want


class _ConvertingEntropyMap(NegEntropyMap):
    """Negative entropy with numpy's dispatching reductions and every point converted."""

    def _require(self, x):
        v = _converting_as_vector(x, self.q)
        if not self.in_domain(v):
            raise SurroError(f"point {v} is outside the mirror-map domain")
        return v

    def value(self, x):
        v = _converting_as_vector(x, self.q)
        if not self.in_domain(v):
            return math.inf
        return float(np.sum(v * np.log(v)))

    def in_domain(self, x):
        v = np.atleast_1d(x)
        return bool(np.all(np.isfinite(v)) and np.all(v > 0.0))

    def closed_step(self, domain, theta, eta, g):
        z = np.atleast_1d(np.asarray(theta * np.exp(-eta * (g - np.min(g))), dtype=float))
        out = z / float(np.sum(z))
        if np.min(out) < domain.face_eps:
            out = domain.project(out)
        return out


class _ConvertingSimplex(Simplex):
    def contains(self, x, tol=1e-12):
        v = _converting_as_vector(x, self.q)
        return bool(np.all(v >= self.face_eps - tol) and abs(float(np.sum(v)) - 1.0) <= 1e-12)


def test_entropy_simplex_run_is_bitwise_the_converting_formulas():
    cfg = load_config(CONFIG_DIR / "entropy_simplex_md.json")
    assert cfg["mirror_map"]["type"] == "neg_entropy" and cfg["domain"]["type"] == "simplex"
    run = assemble(cfg)
    f, eta = ShiftedQuadratic(np.array(cfg["objective"]["target"], dtype=float)), cfg["eta"]
    phi, dom = _ConvertingEntropyMap(3), _ConvertingSimplex(3)

    def closed(theta):
        return phi.closed_step(dom, theta, eta, f.grad(theta))

    ref = _generic_mirror_problem(f, phi, eta, dom, lambda t: t, closed_form_step=closed)
    got, want = iterate(run.problem, run.theta0, run.stop), iterate(ref, run.theta0, run.stop)
    assert got.stop_reason == want.stop_reason and len(got) == len(want) > 100
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.iterates, want.iterates))
    assert got.q_values(run.problem).tobytes() == want.q_values(ref).tobytes()
