"""The analysis pipeline: analyze() against its hand-written steps."""

import numpy as np
import pytest

from surro import runner
from surro.config import CONFIG_DIR, assemble, load_config
from surro.descent import mirror_descent_problem, mirror_prox_problem
from surro.domains import Box, FullSpace, Simplex
from surro.mirror_maps import NegEntropyMap, QuadraticMap
from surro.objectives import QuadraticForm, ShiftedQuadratic
from surro.rates import RatesError, curvature_at, verdicts
from surro.surrogate import StopReason, StopRule, SurrogateProblem, Trace, iterate


def _entropy_prox():
    center = np.array([0.5, 0.3, 0.2])
    prob = mirror_prox_problem(ShiftedQuadratic(center), NegEntropyMap(3), 0.2, Simplex(3))
    return prob, np.array([0.2, 0.3, 0.5]), center


def test_analyze_matches_the_hand_written_sequence():
    prob, theta0, star = _entropy_prox()
    stop = StopRule(max_iters=400)
    got = runner.analyze(prob, theta0, star, stop)

    trace = iterate(prob, theta0, stop)
    frame = curvature_at(prob, star)
    rep = verdicts(trace, star, frame, prob)
    assert (got.decay, got.q_gap, got.q_gaps) == (rep.decay, rep.q_gap, rep.q_gaps)
    assert (got.span_warning, got.verdicts) == (rep.span_warning, rep.verdicts)
    assert got.passed is rep.passed
    np.testing.assert_array_equal(got.theta_star, star)
    np.testing.assert_array_equal(np.array(got.trace.iterates), np.array(trace.iterates))
    for name in ("a_star", "b_star", "basis", "a_tilde", "b_tilde"):
        np.testing.assert_array_equal(getattr(got.frame, name), getattr(frame, name))
    assert got.frame.rates == frame.rates


def test_reports_of_a_2d_run_compare_by_identity(tmp_path):
    # numpy array fields have no single truth value: the records compare by identity
    # rather than raise the ambiguous-truth ValueError
    cfg = load_config(CONFIG_DIR / "gd_diag.json")
    asm = assemble(cfg)
    a, b = (runner.analyze(asm.problem, asm.theta0, asm.theta_star, asm.stop) for _ in range(2))
    bundle = runner.run_experiment(cfg, tmp_path)
    assert a.theta_star.size == 2
    for x, y in ((a, b), (a.frame, b.frame), (a.trace, b.trace), (bundle, a)):
        assert x == x and x != y and y == y


def test_analyze_locates_the_fixed_point_only_when_not_given(monkeypatch):
    calls = []
    original = runner.locate_fixed_point

    def spy(problem, trace):
        calls.append(len(trace))
        return original(problem, trace)

    monkeypatch.setattr(runner, "locate_fixed_point", spy)
    prob = mirror_descent_problem(
        QuadraticForm(np.diag([1.0, 4.0])), QuadraticMap(2), 0.4, FullSpace(2)
    )
    auto = runner.analyze(prob, np.array([1.0, 1.0]))
    assert len(calls) == 1 and calls[0] == len(auto.trace)
    assert np.linalg.norm(auto.theta_star) <= 1e-12
    assert auto.passed

    runner.analyze(prob, np.array([1.0, 1.0]), np.zeros(2))
    assert len(calls) == 1


def test_analyze_raises_when_a_tilde_is_not_positive_definite():
    prob = SurrogateProblem(
        domain=FullSpace(2),
        eval_q=lambda t, u: 0.0,
        grad2=lambda t, u: np.zeros(2),
        hess22=lambda t, u: np.diag([1.0, -1.0]),
        hess12=lambda t, u: np.zeros((2, 2)),
        closed_form_step=lambda t: 0.5 * t,
    )
    with pytest.raises(RatesError, match="reduced curvature matrix A~ is not positive-definite"):
        runner.analyze(prob, np.array([1.0, 1.0]), np.zeros(2))


def _toward_two(eta, domain):
    """Gradient descent on (x - 2)^2 / 2: the affine map x -> x - eta (x - 2)."""
    return mirror_descent_problem(ShiftedQuadratic(np.array([2.0])), QuadraticMap(1), eta, domain)


# the identity map: A~ = B~, so I - A~^{-1} B~ is singular
_STILL = SurrogateProblem(
    domain=FullSpace(1), eval_q=lambda t, u: 0.5 * float((u - t) @ (u - t)),
    grad2=lambda t, u: u - t, hess22=lambda t, u: np.eye(1), hess12=lambda t, u: -np.eye(1))


@pytest.mark.parametrize("problem, points, expected", [
    (_toward_two(0.5, FullSpace(1)), [0.0, 1.0], 2.0),  # extrapolated to the fixed point
    (_toward_two(0.5, FullSpace(1)), [1.0], 1.0),  # too short to extrapolate
    (_STILL, [0.0, 1.0], 1.0),  # singular acceleration
    (_toward_two(0.01, FullSpace(1)), [0.0, 0.02], 0.02),  # a jump of 1.98 over a step of 0.02
    (_toward_two(0.5, Box([-1.0], [1.0])), [0.0, 1.0], 1.0),  # 2.0 is outside the domain
], ids=["extrapolated", "short_trace", "singular", "jump", "infeasible"])
def test_locate_fixed_point_extrapolates_or_keeps_the_last_iterate(problem, points, expected):
    trace = Trace([np.array([x]) for x in points], StopReason.CONVERGED)
    located = runner.locate_fixed_point(problem, trace)
    assert located.tolist() == [expected]
    assert located is not trace.final
