"""Inner minimization and the outer iteration loop."""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import surro
from surro import surrogate
from surro.config import assemble
from surro.descent import mirror_descent_problem, newton_problem
from surro.domains import AffineSlice, Box, FullSpace, Simplex
from surro.latent import GaussianLatentModel, em_population_problem, em_sample_problem
from surro.mirror_maps import NegEntropyMap, QuadraticMap, bregman
from surro.objectives import Quartic1D, QuadraticForm, ShiftedQuadratic
from surro.rng import CounterRNG
from surro.surrogate import (
    InfeasibleInput,
    SolveFailure,
    StopReason,
    StopRule,
    SurrogateError,
    inner_minimize,
    iterate,
    minimize_smooth,
)


def _gd_1d(eta=0.5):
    f = QuadraticForm(np.array([[1.0]]))
    return mirror_descent_problem(f, QuadraticMap(1), eta, FullSpace(1))


def test_inner_minimize_gradient_step_closed_form():
    prob = _gd_1d(eta=0.5)
    out = inner_minimize(prob, np.array([1.0]))
    assert out[0] == pytest.approx(0.5, abs=1e-12)  # theta - eta * grad f(theta)


def test_inner_minimize_fixed_point_stays_put():
    prob = _gd_1d()
    out = inner_minimize(prob, np.array([0.0]))
    assert abs(out[0]) <= 1e-12


def test_inner_minimize_entropy_step_matches_grid_oracle():
    dom = Simplex(2)
    f = ShiftedQuadratic(np.array([0.7, 0.3]))
    phi = NegEntropyMap(2)
    eta = 0.3
    prob = mirror_descent_problem(f, phi, eta, dom)
    theta = np.array([0.4, 0.6])
    out = inner_minimize(prob, theta)
    # brute-force grid minimization of eta g'u + D(u, theta) over the simplex
    g = f.grad(theta)
    xs = np.linspace(1e-6, 1 - 1e-6, 10_000)
    vals = [
        eta * float(g @ np.array([x, 1 - x])) + bregman(phi, np.array([x, 1 - x]), theta)
        for x in xs
    ]
    best = xs[int(np.argmin(vals))]
    assert abs(out[0] - best) <= 2e-4  # grid resolution


def test_numeric_inner_minimize_agrees_with_closed_form():
    rng = CounterRNG(30)
    cases = [
        (_gd_1d(0.4), lambda: rng.gaussian(1)),
        (
            mirror_descent_problem(
                ShiftedQuadratic(np.array([0.5, 0.3, 0.2])), NegEntropyMap(3), 0.2, Simplex(3)
            ),
            lambda: Simplex(3).sample(rng),
        ),
        (
            em_sample_problem(
                GaussianLatentModel(1.0, 1.0, 0.0), np.array([0.3, -0.8, 1.2])
            ),
            lambda: rng.gaussian(1),
        ),
    ]
    for prob, draw in cases:
        assert prob.closed_form_step is not None
        numeric_prob = dataclasses.replace(prob, closed_form_step=None)
        for _ in range(100):
            theta = draw()
            closed = inner_minimize(prob, theta)
            numeric = inner_minimize(numeric_prob, theta)
            assert np.linalg.norm(closed - numeric) <= 1e-6


def descent_certificate(problem, theta, theta_opt, rng) -> bool:
    """Probe 32 feasible directions 1e-6 around theta_opt for surrogate decrease.

    Returns True when no probe improves Q(theta, .) by more than 1e-10, the
    first-order certificate that theta_opt is a constrained minimizer.
    """
    th = problem.check_feasible(theta)
    base = problem.eval_q(th, theta_opt)
    for _ in range(32):
        d = rng.gaussian(problem.q)
        point = problem.domain.project(theta_opt + 1e-6 * d / np.linalg.norm(d))
        if problem.eval_q(th, point) < base - 1e-10:
            return False
    return True


def test_descent_certificate_on_inner_solutions():
    rng = CounterRNG(31)
    prob = mirror_descent_problem(
        ShiftedQuadratic(np.array([0.5, 0.3, 0.2])), NegEntropyMap(3), 0.2, Simplex(3)
    )
    for _ in range(10):
        theta = Simplex(3).sample(rng)
        out = inner_minimize(prob, theta)
        assert descent_certificate(prob, theta, out, rng)


def test_inner_minimize_rejects_infeasible_start():
    prob = mirror_descent_problem(
        ShiftedQuadratic(np.array([0.5, 0.5])), NegEntropyMap(2), 0.2, Simplex(2)
    )
    with pytest.raises(InfeasibleInput):
        inner_minimize(prob, np.array([0.9, 0.9]))


def test_iterate_newton_quartic_quadratic_residuals():
    prob = newton_problem(Quartic1D())
    trace = iterate(prob, np.array([1.0]))
    errors = trace.errors(np.zeros(1))
    seen = False
    for n in range(len(errors) - 1):
        if errors[n] < 0.1 and errors[n] > 0:
            seen = True
            assert errors[n + 1] <= 2.0 * errors[n] ** 2 + 1e-15
    assert seen


def test_iterate_fixed_point_start_gives_single_point_trace():
    model = GaussianLatentModel(1.0, 1.0, theta_star=2.5)
    prob = em_population_problem(model)
    trace = iterate(prob, np.array([2.5]))
    assert len(trace) == 1
    assert trace.stop_reason is StopReason.CONVERGED
    assert trace.residuals() == [] and trace.q_values(prob).size == 0


def test_iterate_2d_gradient_descent_closed_recursion():
    f = QuadraticForm(np.diag([1.0, 4.0]))
    prob = mirror_descent_problem(f, QuadraticMap(2), 0.4, FullSpace(2))
    trace = iterate(prob, np.array([1.0, 1.0]), StopRule(max_iters=40))
    for n, point in enumerate(trace.iterates):
        np.testing.assert_allclose(point, [0.6**n, (-0.6) ** n], atol=1e-12)


def test_trace_length_invariants_and_feasibility():
    dom = Simplex(3)
    prob = mirror_descent_problem(
        ShiftedQuadratic(np.array([0.5, 0.3, 0.2])), NegEntropyMap(3), 0.2, dom
    )
    trace = iterate(prob, np.array([0.2, 0.3, 0.5]), StopRule(max_iters=50))
    assert len(trace.q_values(prob)) == len(trace) - 1
    assert len(trace.residuals()) == len(trace) - 1
    for point in trace.iterates:
        assert dom.contains(point, tol=1e-12)


def test_monotone_surrogate_descent_along_traces():
    cases = [
        (_gd_1d(0.4), np.array([2.0])),
        (
            em_sample_problem(GaussianLatentModel(1.0, 2.0, 0.0), np.array([0.5, -1.0, 2.0])),
            np.array([3.0]),
        ),
    ]
    for prob, theta0 in cases:
        trace = iterate(prob, theta0, StopRule(max_iters=60))
        q_values = trace.q_values(prob)
        for n in range(len(trace) - 1):
            q_self = prob.eval_q(trace.iterates[n], trace.iterates[n])
            assert q_values[n] <= q_self + 1e-10


def test_lyapunov_values_monotone_for_em():
    model = GaussianLatentModel(1.0, 1.0, 0.0)
    data = np.array([0.4, -0.2, 1.1, 0.9])
    for prob in (em_sample_problem(model, data), em_population_problem(model)):
        trace = iterate(prob, np.array([5.0]), StopRule(max_iters=80))
        assert prob.lyapunov is not None
        ly = [float(prob.lyapunov(t)) for t in trace.iterates]
        assert all(b <= a + 1e-10 for a, b in zip(ly, ly[1:]))
        assert ly[-1] < ly[0]


def _map_problem(step):
    return surro.SurrogateProblem(
        q=1,
        domain=FullSpace(1),
        eval_q=lambda t, u: float((u[0] - step(t)[0]) ** 2),
        grad2=lambda t, u: np.array([2.0 * (u[0] - step(t)[0])]),
        closed_form_step=step,
    )


def test_stall_detection_terminates():
    # a sign flip at 1e-10 never meets the tolerance, and its residual sits at
    # floating-point resolution, where a run without progress stalls
    prob = _map_problem(lambda t: -t)
    trace = iterate(prob, np.array([1e-10]), StopRule(max_iters=500))
    assert trace.stop_reason is StopReason.STALLED
    assert len(trace) <= 30

    # a fixed translation keeps its residual far above resolution: no stall
    prob = _map_problem(lambda t: t + 1.0)
    trace = iterate(prob, np.array([0.0]), StopRule(max_iters=500))
    assert trace.stop_reason is StopReason.MAX_ITERS
    assert len(trace) == 501


def test_fixed_point_residual_examples():
    prob = _gd_1d(0.5)

    def residual(theta):
        return float(np.linalg.norm(inner_minimize(prob, theta) - theta))

    assert residual(np.array([1.0])) == pytest.approx(0.5, abs=1e-12)
    assert residual(np.array([0.0])) <= 1e-12


def test_q_values_that_overflow_raise_surrogate_error():
    # the steps stay finite, but Q along them overflows
    prob = dataclasses.replace(_gd_1d(0.5), eval_q=lambda t, u: float(np.exp(1e3 * u[0] + 1e3)))
    trace = iterate(prob, np.array([1.0]), StopRule(max_iters=3))
    with pytest.raises(SurrogateError, match="floating-point range"):
        trace.q_values(prob)


def test_a_step_that_overflows_raises_surrogate_error():
    prob = _map_problem(lambda t: t * 1e300)
    with pytest.raises(SurrogateError, match="step 0 left the floating-point range"):
        iterate(prob, np.array([1e5]), StopRule(max_iters=5))


def _unreachable_hessian(x):
    raise AssertionError("no Newton step exists on this domain")


def _value_off_a_wall(x):
    # (x - 0.5)^2, undefined past 1.2: the first Newton trial lands at 2.0
    return float((x[0] - 0.5) ** 2) if x[0] < 1.2 else np.inf


_PINNED = AffineSlice(np.eye(2), [0.3, 0.4], Box([0.0, 0.0], [1.0, 1.0]))


@pytest.mark.parametrize("domain, fun, grad, hess, x0, expected", [
    # a non-finite value halves the step: 2.0 -> 1.0 -> 0.5
    (FullSpace(1), _value_off_a_wall, lambda x: 2.0 * (x - 0.5), lambda x: np.array([[0.5]]),
     [0.0], [0.5]),
    # a singular Hessian raises LinAlgError in the Newton solve: gradient steps take over
    (FullSpace(2), lambda x: 0.5 * float((x - 1.0) @ (x - 1.0)), lambda x: x - 1.0,
     lambda x: np.zeros((2, 2)), [3.0, -2.0], [1.0, 1.0]),
    # a point domain has no direction basis: its point is the answer, with no Newton step
    (_PINNED, lambda x: float(x @ x), lambda x: 2.0 * x, _unreachable_hessian, [0.9, 0.9],
     [0.3, 0.4]),
], ids=["non_finite_value", "singular_hessian", "point_domain"])
def test_minimize_smooth_falls_back_and_still_converges(domain, fun, grad, hess, x0, expected):
    x = minimize_smooth(domain, fun, grad, hess, np.array(x0))
    np.testing.assert_allclose(x, expected, rtol=0.0, atol=1e-11)


def test_minimize_smooth_calls_grad_only_at_points_of_finite_value():
    values = []

    def grad(x):
        values.append(_value_off_a_wall(x))
        return 2.0 * (x - 0.5)

    x = minimize_smooth(FullSpace(1), _value_off_a_wall, grad, lambda x: np.array([[0.5]]),
                        np.array([0.0]))
    np.testing.assert_allclose(x, [0.5], rtol=0.0, atol=1e-11)
    assert values and np.isfinite(values).all()
    # a start of infinite value is refused before any gradient
    values.clear()
    with pytest.raises(SolveFailure, match=r"start \[1\.5\] has value inf"):
        minimize_smooth(FullSpace(1), _value_off_a_wall, grad, None, np.array([1.5]))
    assert values == []


def test_minimize_smooth_without_a_descent_direction_raises():
    # the gradient has the wrong sign: no step along -g decreases x^2 or its residual
    with pytest.raises(SolveFailure, match="no descent direction found"):
        minimize_smooth(FullSpace(1), lambda x: float(x @ x), lambda x: -2.0 * x, None,
                        np.array([1.0]))


def test_inner_solve_failure_carries_step_index():
    bad = surro.SurrogateProblem(
        q=1,
        domain=FullSpace(1),
        eval_q=lambda t, u: float(-(u[0] ** 2)),  # unbounded below: no minimizer
        grad2=lambda t, u: np.array([-2.0 * u[0]]),
    )
    with pytest.raises(surro.InnerSolveFailed) as err:
        iterate(bad, np.array([1.0]), StopRule(max_iters=5))
    assert err.value.step_index == 0


CONFIGS = Path(__file__).resolve().parents[1] / "src" / "surro" / "configs"


@pytest.mark.parametrize(
    "path", sorted(p for p in CONFIGS.glob("*.json") if not p.name.startswith("sweep_")),
    ids=lambda p: p.stem,
)
def test_iterate_makes_one_inner_step_per_step_and_derives_nothing(path, monkeypatch):
    asm = assemble(json.loads(path.read_text()))
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    problem = asm.problem
    watched = dataclasses.replace(
        problem,
        eval_q=counted("eval_q", problem.eval_q),
        lyapunov=counted("lyapunov", problem.lyapunov or (lambda theta: 0.0)),
    )
    original = surrogate.inner_minimize
    steps = []

    def inner(prob, theta):
        assert prob is watched
        steps.append((theta, original(problem, theta)))  # the solve reads unwatched callbacks
        return steps[-1][1]

    monkeypatch.setattr(surrogate, "inner_minimize", inner)
    trace = iterate(watched, asm.theta0, asm.stop)
    assert calls == Counter()
    # one inner step per appended iterate, plus the step that found an exact fixed point
    assert all(np.array_equal(theta, point) for (theta, _), point in zip(steps, trace.iterates))
    assert len(steps) == len(trace) - 1 or (
        len(steps) == len(trace) and np.array_equal(steps[-1][1], trace.final)
    )
