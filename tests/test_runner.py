"""The analysis pipeline: analyze() against its hand-written steps."""

import numpy as np
import pytest

from surro import runner
from surro.descent import mirror_descent_problem, mirror_prox_problem
from surro.domains import FullSpace, Simplex
from surro.mirror_maps import NegEntropyMap, QuadraticMap
from surro.objectives import QuadraticForm, ShiftedQuadratic
from surro.rates import FDSpec, H4Violated, curvature_at, verdicts
from surro.surrogate import StopRule, SurrogateProblem, iterate


def _entropy_prox():
    center = np.array([0.5, 0.3, 0.2])
    prob = mirror_prox_problem(ShiftedQuadratic(center), NegEntropyMap(3), 0.2, Simplex(3))
    return prob, np.array([0.2, 0.3, 0.5]), center


def test_analyze_matches_the_hand_written_sequence():
    prob, theta0, star = _entropy_prox()
    stop, fd = StopRule(max_iters=400), FDSpec(step=1e-5)
    got = runner.analyze(prob, theta0, star, stop, fd)

    trace = iterate(prob, theta0, stop)
    frame = curvature_at(prob, star, fd)
    rep = verdicts(trace, star, frame, prob)
    assert got.report == rep
    assert got.passed is rep.passed
    np.testing.assert_array_equal(got.theta_star, star)
    np.testing.assert_array_equal(np.array(got.trace.iterates), np.array(trace.iterates))
    for name in ("a_star", "b_star", "basis", "a_tilde", "b_tilde"):
        np.testing.assert_array_equal(getattr(got.frame, name), getattr(frame, name))
    assert got.frame.rates == frame.rates


def test_analyze_locates_the_fixed_point_only_when_not_given(monkeypatch):
    calls = []
    original = runner.locate_fixed_point

    def spy(problem, trace, fd):
        calls.append(len(trace))
        return original(problem, trace, fd)

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
        q=2,
        domain=FullSpace(2),
        eval_q=lambda t, u: 0.0,
        grad2=lambda t, u: np.zeros(2),
        hess22=lambda t, u: np.diag([1.0, -1.0]),
        hess12=lambda t, u: np.zeros((2, 2)),
        closed_form_step=lambda t: 0.5 * t,
    )
    with pytest.raises(H4Violated):
        runner.analyze(prob, np.array([1.0, 1.0]), np.zeros(2))
