"""Curvature frames, rate pairs, decay estimation, verdicts and transforms."""

import dataclasses
import json

import numpy as np
import pytest

from surro import linalg
from surro.config import CONFIG_DIR, assemble, assemble_sweep
from surro.runner import analyze
from surro.descent import mirror_descent_problem, mirror_prox_problem, newton_problem
from surro.domains import AffineSlice, Box, FullSpace, Simplex
from surro.latent import GaussianLatentModel, alpha_em_problem, draw_data, em_population_problem
from surro.mirror_maps import NegEntropyMap, QuadraticMap
from surro.objectives import Quartic1D, QuadraticForm, ShiftedQuadratic
from surro.rates import (
    MIN_WINDOW_POINTS,
    CurvatureFrame,
    RatesError,
    accelerate,
    alpha_transform,
    curvature_at,
    decay_estimate,
    default_floor,
    mirror_prox_spectrum_map,
    optimal_alpha,
    reparam_invariance_check,
    verdicts,
)
from surro.rng import CounterRNG
from surro.surrogate import StopRule, SurrogateProblem, Trace, StopReason, inner_minimize, iterate


def _gd(diag, eta, q=None):
    f = QuadraticForm(np.diag(diag))
    return mirror_descent_problem(f, QuadraticMap(len(diag)), eta, FullSpace(len(diag)))


def _synthetic_trace(ratio, n, direction, theta_star):
    pts = [theta_star + ratio**k * direction for k in range(n)]
    return Trace(iterates=pts, stop_reason=StopReason.MAX_ITERS)


def test_direction_basis_variants():
    """Each domain's direction basis, which a frame at any point of the domain uses."""
    np.testing.assert_allclose(FullSpace(3).direction_basis(), np.eye(3))
    p = Simplex(2).direction_basis()
    assert abs(abs(p[0, 0]) - 1 / np.sqrt(2)) < 1e-12 and p[0, 0] == -p[1, 0]
    dom = AffineSlice([[1.0, 1.0, 1.0]], [1.0], Box([-2.0] * 3, [2.0] * 3))
    np.testing.assert_allclose(np.array([[1.0, 1.0, 1.0]]) @ dom.direction_basis(), 0.0,
                               atol=1e-12)
    for domain, star in [(FullSpace(3), np.zeros(3)), (Simplex(2), np.array([0.5, 0.5])),
                         (dom, np.array([1 / 3] * 3))]:
        p = curvature_at(_pencil_problem([0.0] * domain.q, domain), star).basis
        np.testing.assert_array_equal(p, domain.direction_basis())


def test_direction_basis_rejects_points_outside():
    problem = _pencil_problem([0.0, 0.0], Simplex(2))
    with pytest.raises(RatesError, match=r"reference point \[0.9 0.9\] is outside the domain"):
        curvature_at(problem, np.array([0.9, 0.9]))
    box = _pencil_problem([0.0], Box([0.0], [1.0]))
    curvature_at(box, np.array([1.0 + 0.5e-9]))  # within REFERENCE_TOL of the face
    with pytest.raises(RatesError, match="outside the domain"):
        curvature_at(box, np.array([1.0 + 2e-9]))


def test_curvature_md_quadratic_analytic_and_fd_agree():
    prob = _gd([1.0, 4.0], 0.4)
    star = np.zeros(2)
    analytic = curvature_at(prob, star)
    fd = curvature_at(dataclasses.replace(prob, hess22=None, hess12=None), star)
    np.testing.assert_allclose(analytic.a_tilde, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(analytic.b_tilde, np.diag([0.6, -0.6]), atol=1e-12)
    np.testing.assert_allclose(fd.a_tilde, analytic.a_tilde, atol=1e-5)
    np.testing.assert_allclose(fd.b_tilde, analytic.b_tilde, atol=1e-5)
    assert analytic.h4_pass


def test_curvature_reduced_on_simplex_problem():
    center = np.array([0.5, 0.3, 0.2])
    prob = mirror_descent_problem(ShiftedQuadratic(center), NegEntropyMap(3), 0.2, Simplex(3))
    frame = curvature_at(prob, center)
    assert frame.a_tilde.shape == (2, 2)
    p = frame.basis
    np.testing.assert_allclose(p.T @ p, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(p.T @ frame.a_star @ p, frame.a_tilde, atol=1e-10)
    np.testing.assert_allclose(p.T @ frame.b_star @ p, frame.b_tilde, atol=1e-10)
    # analytic reduction of the mirror Hessian
    expected = p.T @ np.diag(1.0 / center) @ p
    np.testing.assert_allclose(frame.a_tilde, expected, atol=1e-9)


def test_curvature_newton_and_population_em():
    frame = curvature_at(newton_problem(QuadraticForm(np.diag([2.0, 7.0]))), np.zeros(2))
    np.testing.assert_allclose(frame.a_tilde, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(frame.b_tilde, 0.0, atol=1e-9)

    em = em_population_problem(GaussianLatentModel(1.0, 1.0, theta_star=1.0))
    fd = curvature_at(dataclasses.replace(em, hess22=None, hess12=None), np.array([1.0]))
    assert fd.a_tilde[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert fd.b_tilde[0, 0] == pytest.approx(0.5, abs=1e-6)


ALGORITHM_CONFIGS = sorted(p for p in CONFIG_DIR.glob("*.json") if not p.name.startswith("sweep_"))


@pytest.mark.parametrize("path", ALGORITHM_CONFIGS, ids=lambda path: path.stem)
def test_analytic_curvature_matches_finite_differences_on_bundled_configs(path):
    asm = assemble(json.loads(path.read_text()))
    assert asm.problem.hess22 is not None  # the analytic branch is exercised
    analytic = curvature_at(asm.problem, asm.theta_star)
    probed = curvature_at(dataclasses.replace(asm.problem, hess22=None, hess12=None),
                          asm.theta_star)
    np.testing.assert_allclose(probed.a_tilde, analytic.a_tilde, rtol=0, atol=1e-8)
    np.testing.assert_allclose(probed.b_tilde, analytic.b_tilde, rtol=0, atol=1e-8)


def _e12_boundary_problem():
    """E12's boundary counterexample, argmin over [1, 10] of t^2 - t u + u^2, with its
    derivatives by hand: hess22 = 2, hess12 = -1.  Its fixed point 1 is on a face."""
    return SurrogateProblem(
        domain=Box([1.0], [10.0]),
        eval_q=lambda t, u: float(t[0] ** 2 - t[0] * u[0] + u[0] ** 2),
        grad2=lambda t, u: np.array([2.0 * u[0] - t[0]]),
        hess22=lambda t, u: np.array([[2.0]]),
        hess12=lambda t, u: np.array([[-1.0]]),
    )


def _sweep_cell(name, k, seed):
    """(sample problem, its EM fixed point) of one cell of the bundled sweep config `name`."""
    _, model, _, _ = assemble_sweep(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    problem = model.sample_problem(draw_data(model, k, seed))
    return problem, iterate(problem, model.default_theta0()).final


def _registry_problems():
    """(problem, point) for every problem E1-E8, E11 and E12 take curvature of, built as
    suite.py builds them (E5 at one cell of each sweep); E11 takes it away from the
    fixed point."""
    model = GaussianLatentModel(1.0, 1.0, theta_star=1.0)
    em = em_population_problem(model)
    center = np.array([0.5, 0.3, 0.2])
    quadratic = (QuadraticForm(np.diag([1.0, 1.25])), QuadraticMap(2), 0.5, FullSpace(2))
    entropy = (ShiftedQuadratic(center), NegEntropyMap(3), 0.2, Simplex(3))
    return {
        "E1_E8_gd": (_gd([1.0, 4.0], 0.4), np.zeros(2)),
        "E2": (_gd([1.0, 1.5], 0.4), np.zeros(2)),
        "E3_md_quadratic": (mirror_descent_problem(*quadratic), np.zeros(2)),
        "E3_prox_quadratic": (mirror_prox_problem(*quadratic), np.zeros(2)),
        "E3_md_entropy": (mirror_descent_problem(*entropy), center),
        "E3_prox_entropy": (mirror_prox_problem(*entropy), center),
        "E4_E6_E8_E12_em": (em, np.array([1.0])),
        "E5_mixture": _sweep_cell("sweep_mixture", 100, 0),
        "E5_gaussian": _sweep_cell("sweep_gaussian", 100, 0),
        "E6_alpha_half": (alpha_em_problem(model, 0.5), np.array([1.0])),
        "E6_alpha_quarter": (alpha_em_problem(model, 0.25), np.array([1.0])),
        "E7": (newton_problem(Quartic1D()), np.zeros(1)),
        "E11_em": (em, np.array([1.1])),
        "E11_gd": (_gd([1.0, 4.0], 0.4), np.array([1.0, 1.0])),
        "E12_boundary": (_e12_boundary_problem(), np.array([1.0])),
    }


@pytest.mark.filterwarnings("ignore:step size eta")
@pytest.mark.parametrize("name", list(_registry_problems()))
def test_analytic_curvature_matches_finite_differences_on_registry_problems(name):
    """Without an analytic hess12 (mirror prox, Newton) B~ is a finite difference
    both ways, so there only A~ is compared."""
    problem, point = _registry_problems()[name]
    assert problem.hess22 is not None
    analytic = curvature_at(problem, point)
    probed = curvature_at(dataclasses.replace(problem, hess22=None, hess12=None), point)
    np.testing.assert_allclose(probed.a_tilde, analytic.a_tilde, rtol=0, atol=1e-8)
    np.testing.assert_allclose(probed.b_tilde, analytic.b_tilde, rtol=0, atol=1e-8)


# relative to 1 + |theta*|: small enough for the h^2 term of Newton's map (2h^2), large
# enough for the 1e-12 residual of the numeric inner solves
MAP_STEP = 1e-5


def _fixed_point_case(name):
    if name == "e12_boundary":
        return _e12_boundary_problem(), np.array([1.0])
    asm = assemble(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    return asm.problem, asm.theta_star


@pytest.mark.parametrize("name", [p.stem for p in ALGORITHM_CONFIGS] + ["e12_boundary"])
def test_map_jacobian_spectrum_is_the_pencil_spectrum(name):
    """Central differences of the map M(theta) = argmin Q(theta, .) along the frame
    basis at theta*: at an interior fixed point DM = A^-1 B, so the reduced Jacobian
    has the eigenvalues of A~^-1 B~ that the frame's curvature gives."""
    problem, star = _fixed_point_case(name)
    if not problem.domain.is_interior(star):
        pytest.skip("theta* is on the boundary, where the map is not differentiable")
    frame = curvature_at(problem, star)
    p, h = frame.basis, MAP_STEP * (1.0 + float(np.linalg.norm(star)))

    def step(offset):
        return inner_minimize(problem, star + offset)

    cols = [(step(h * p[:, j]) - step(-h * p[:, j])) / (2.0 * h) for j in range(frame.d)]
    measured = np.linalg.eigvals(p.T @ np.column_stack(cols))
    predicted = np.linalg.eigvals(np.linalg.solve(frame.a_tilde, frame.b_tilde))
    assert np.abs(measured.imag).max() <= 1e-8 and np.abs(predicted.imag).max() <= 1e-8
    np.testing.assert_allclose(np.sort(measured.real), np.sort(predicted.real), rtol=0, atol=1e-8)


def _pencil_problem(b_diag, domain=None):
    """Analytic curvature A* = I, B* = diag(b_diag) on domain (default FullSpace(len(b_diag)))."""
    q = len(b_diag)
    return SurrogateProblem(
        domain=domain or FullSpace(q),
        eval_q=lambda t, u: 0.0,
        grad2=lambda t, u: np.zeros(q),
        hess22=lambda t, u: np.eye(q),
        hess12=lambda t, u: -np.diag(b_diag),
    )


@pytest.mark.parametrize("rho, expected", [(1.05, False), (0.999, True)])
def test_h4_is_decided_exactly_on_a_thin_cone(rho, expected):
    # u'Bu > u'Au only on a thin cone around e1, which sampled directions miss
    frame = curvature_at(_pencil_problem([rho] + [0.0] * 7), np.zeros(8))
    assert frame.rates.rho_sup == pytest.approx(rho, rel=1e-14)
    assert frame.h4_pass is expected


def test_non_pd_curvature_has_no_rate_pair():
    prob = SurrogateProblem(
        domain=FullSpace(2),
        eval_q=lambda t, u: 0.0,
        grad2=lambda t, u: np.zeros(2),
        hess22=lambda t, u: np.diag([1.0, -1.0]),
        hess12=lambda t, u: np.zeros((2, 2)),
    )
    frame = curvature_at(prob, np.zeros(2))
    assert frame.spectrum is None
    assert frame.h4_pass is False
    for read in (lambda f: f.rates, mirror_prox_spectrum_map, optimal_alpha,
                 lambda f: alpha_transform(f, 0.25)):
        with pytest.raises(RatesError,
                           match="reduced curvature matrix A~ is not positive-definite"):
            read(frame)


def test_frame_carries_the_rate_pair_of_its_pencil():
    frame = curvature_at(_gd([1.0, 1.5], 0.4), np.zeros(2))
    assert frame.rates == pytest.approx((0.4, 0.6), abs=1e-12)


def test_theoretical_rates_examples():
    prob = _gd([1.0, 4.0], 0.4)
    rates = curvature_at(prob, np.zeros(2)).rates
    assert rates == pytest.approx((0.6, 0.6))
    # the optimal step for spectrum {1, 4} equalizes the two edge multipliers
    eta_opt = 2.0 / (1.0 + 4.0)
    rates = curvature_at(_gd([1.0, 4.0], eta_opt), np.zeros(2)).rates
    assert rates == pytest.approx((0.6, 0.6))
    rates = curvature_at(newton_problem(Quartic1D()), np.zeros(1)).rates
    assert rates == pytest.approx((0.0, 0.0), abs=1e-9)


def test_theoretical_rates_h4_violation():
    frame = curvature_at(_gd([1.0, 4.0], 0.4), np.zeros(2))
    bad = type(frame)(
        a_star=-frame.a_star,
        b_star=frame.b_star,
        basis=frame.basis,
        a_tilde=-frame.a_tilde,
        b_tilde=frame.b_tilde,
        asymmetry_diag=0.0,
        spectrum=None,
    )
    with pytest.raises(RatesError, match="reduced curvature matrix A~ is not positive-definite"):
        bad.rates


def test_rate_definition_sampling_consistency():
    center = np.array([0.5, 0.3, 0.2])
    prob = mirror_descent_problem(ShiftedQuadratic(center), NegEntropyMap(3), 0.2, Simplex(3))
    frame = curvature_at(prob, center)
    rates = frame.rates
    rng = CounterRNG(70)
    v = rng.gaussian(100_000 * frame.d).reshape(100_000, frame.d)
    num = np.abs(np.einsum("ij,jk,ik->i", v, frame.b_tilde, v))
    den = np.einsum("ij,jk,ik->i", v, frame.a_tilde, v)
    ratios = num / den
    assert np.max(ratios) <= rates.rho_sup * (1 + 1e-9)
    assert rates.rho_sup - np.max(ratios) <= 1e-2 * (1 + rates.rho_sup)
    assert rates.rho_inf <= np.min(ratios) + 1e-9  # the reduced pencil is definite here


def _full_window_decay(trace, star):
    est = decay_estimate(trace.errors(star), default_floor(star))
    assert est.n_usable >= MIN_WINDOW_POINTS  # a fitted window, not the short-window fallback
    return est


def test_empirical_rate_exact_geometric_inputs():
    star = np.zeros(2)
    direction = np.array([1.0, -1.0])
    est = _full_window_decay(_synthetic_trace(0.6, 60, direction, star), star)
    assert est.slope == pytest.approx(np.log(0.6), abs=1e-9)
    assert est.successive_ratio == pytest.approx(0.6, abs=1e-12)


def test_empirical_rate_calibration_sweep():
    star = np.zeros(1)
    for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        # size the trace so every point clears the floor even at r = 0.1
        n = min(240, int(16.0 / abs(np.log10(r))))
        trace = _synthetic_trace(r, max(n, 16), 1e4 * np.ones(1), star)
        assert abs(np.exp(_full_window_decay(trace, star).slope) - r) <= 1e-6


def test_empirical_rate_gd_trace():
    prob = _gd([1.0, 4.0], 0.4)
    trace = iterate(prob, np.array([1.0, 1.0]))
    est = _full_window_decay(trace, np.zeros(2))
    assert np.exp(est.slope) == pytest.approx(0.6, abs=1e-3)
    assert est.successive_ratio == pytest.approx(0.6, abs=1e-3)


def test_empirical_rate_window_too_short_for_newton():
    prob = newton_problem(Quartic1D())
    trace = iterate(prob, np.array([1.0]))
    est = decay_estimate(trace.errors(np.zeros(1)), default_floor(np.zeros(1)))
    assert est.n_usable < MIN_WINDOW_POINTS
    assert est.superlinear
    assert est.rate < 0.05


def _list_decay_estimate(errors, floor):
    """The index-list form of decay_estimate, kept as an independent reference."""
    e = np.asarray(errors, dtype=float)
    n = e.size
    start = int(np.floor(0.3 * n))
    usable = [i for i in range(start, n) if e[i] > floor]
    ratios_all = [e[i + 1] / e[i] for i in range(n - 1) if e[i] > floor]
    if len(usable) >= 10:
        idx = np.array(usable)
        usable_set = set(usable)
        slope = float(np.polyfit(idx, np.log(e[idx]), 1)[0])
        pair_ratios = [e[i + 1] / e[i] for i in idx[:-1] if i + 1 in usable_set]
        ratio = float(np.median(pair_ratios)) if pair_ratios else None
        return (slope, ratio, float(np.exp(slope)), len(usable), False, False,
                (int(idx[0]), int(idx[-1])))
    if not ratios_all:
        return (None, None, 0.0, len(usable), False, True, (0, 0))
    last = float(ratios_all[-1])
    collapsed = e[-1] <= 10.0 * floor
    shrinking = last <= 0.5 * ratios_all[0] or len(ratios_all) == 1
    return (float(np.log(last)) if last > 0 else None, last, last, len(usable),
            bool(collapsed and shrinking), len(usable) == 0, (start, n - 1))


def _random_error_sequence(rng):
    """An error sequence of length 0-59 with geometric or superlinear decay, zeros and a
    floor that is either tiny or one of its own values, so the sequence crosses it."""
    n = int(rng.uniform(1)[0] * 60)
    u = rng.uniform(6)
    log_ratio = np.log(0.05 + 1.1 * u[0]) * np.ones(n)
    if u[1] < 0.3:  # superlinear: ever faster decay
        log_ratio = log_ratio - 0.5 * np.arange(n)
    log_e = np.log(1e-3 + 1e3 * u[2]) + np.cumsum(log_ratio + 0.3 * (rng.uniform(n) - 0.5))
    e = np.exp(np.clip(log_e, -460.0, 230.0))
    e[rng.uniform(n) < 0.2 * u[3]] = 0.0
    floor = e[int(u[5] * n)] if n and u[4] < 0.5 else 1e-12 * (1.0 + 10.0 * u[4])
    return e, floor


def test_decay_estimate_matches_the_index_list_estimator():
    rng = CounterRNG(2024)
    cases = [(np.array([]), 1e-12), (np.array([0.5]), 1e-12), (np.array([0.5, 0.1]), 1e-12),
             (np.array([0.5, 0.0]), 1e-12), (np.array([1.0, 1e-3, 1e-9, 1e-27]), 1e-12)]
    cases += [_random_error_sequence(rng) for _ in range(2400)]
    kinds = set()
    for errors, floor in cases:
        est = decay_estimate(errors, floor)
        assert dataclasses.astuple(est) == _list_decay_estimate(errors, floor), (errors, floor)
        kinds.add((est.n_usable >= MIN_WINDOW_POINTS, est.superlinear, est.window_empty))
    assert len(kinds) >= 4  # fitted, superlinear, short and empty windows all occur


def test_verdicts_gradient_descent_exact_regime():
    prob = _gd([1.0, 1.5], 0.4)
    trace = iterate(prob, np.array([1.0, 1.0]))
    frame = curvature_at(prob, np.zeros(2))
    rep = verdicts(trace, np.zeros(2), frame, prob)
    assert rep.frame.rates == pytest.approx((0.4, 0.6))
    assert rep.verdicts == {k: "pass" for k in ("upper", "lower", "exact", "q_gap")}
    assert abs(rep.decay.rate - 0.6) <= 0.02


def test_verdicts_newton_superlinear_convention():
    prob = newton_problem(Quartic1D())
    trace = iterate(prob, np.array([1.0]))
    frame = curvature_at(prob, np.zeros(1))
    rep = verdicts(trace, np.zeros(1), frame, prob)
    assert rep.decay.superlinear
    assert rep.verdicts["upper"] == "pass"
    assert rep.verdicts["exact"] == "pass"  # zero rate pair, applicable at 0 <= 0


@pytest.mark.parametrize(
    "rho_sup, exact", [(0.6, "pass"), (1.9, "inapplicable"), (2.0, "inapplicable"),
                       (1e200, "inapplicable")],
)
def test_exact_regime_is_decided_without_squaring_a_huge_rho_sup(rho_sup, exact):
    # rho_sup**2 raises OverflowError on a Python float from about 1.3e154
    prob = _gd([1.0, 1.5], 0.4)
    trace = iterate(prob, np.array([1.0, 1.0]))
    frame = dataclasses.replace(curvature_at(prob, np.zeros(2)), spectrum=np.array([0.4, rho_sup]))
    assert verdicts(trace, np.zeros(2), frame, prob).verdicts["exact"] == exact


@pytest.mark.parametrize("rho_inf, exact", [(0.25 - 1e-9, "inapplicable"), (0.25, "pass")])
def test_exact_regime_allows_only_a_rounding_slack(rho_inf, exact):
    # exact applies when rho_sup^2 <= rho_inf: a planted spectrum 1e-9 short of that
    # is outside the regime, whatever the trace
    prob = _gd([0.5, 0.75], 1.0)  # the step is diag(0.5, 0.25) theta
    trace = iterate(prob, np.array([1.0, 1.0]))
    frame = dataclasses.replace(curvature_at(prob, np.zeros(2)), spectrum=np.array([rho_inf, 0.5]))
    assert verdicts(trace, np.zeros(2), frame, prob).verdicts["exact"] == exact


def test_verdicts_population_em():
    em = em_population_problem(GaussianLatentModel(1.0, 1.0, theta_star=1.0))
    trace = iterate(em, np.array([2.0]))
    frame = curvature_at(em, np.array([1.0]))
    rep = verdicts(trace, np.array([1.0]), frame, em)
    assert all(v == "pass" for v in rep.verdicts.values())
    assert rep.decay.rate == pytest.approx(0.5, abs=2e-3)


def test_verdicts_fail_when_theory_is_wrong():
    prob = _gd([1.0, 4.0], 0.4)
    trace = iterate(prob, np.array([1.0, 1.0]))
    frame = curvature_at(prob, np.zeros(2))
    rep = verdicts(trace, np.array([0.5, 0.0]), frame, prob)  # wrong fixed point
    assert rep.verdicts["upper"] == "fail"
    assert not rep.passed


def test_a_converged_run_1e9_from_theta_star_fails_every_verdict():
    # gd_diag converges to 0 within about 4e-14; its contraction bound puts the
    # limit far closer to the last iterate than the given theta* at 1e-9
    cfg = json.loads((CONFIG_DIR / "gd_diag.json").read_text())
    asm = assemble(dict(cfg, theta_star=[1e-9, 0.0]))
    run = analyze(asm.problem, asm.theta0, asm.theta_star, asm.stop)
    assert run.trace.stop_reason is StopReason.CONVERGED
    assert run.verdicts == dict.fromkeys(("upper", "lower", "exact", "q_gap"), "fail")


def test_verdicts_boundary_point_marks_lower_inapplicable():
    prob = mirror_descent_problem(
        QuadraticForm(np.eye(1)), QuadraticMap(1), 0.5, Box([0.0], [2.0])
    )
    trace = iterate(prob, np.array([1.0]))
    frame = curvature_at(prob, np.zeros(1))
    rep = verdicts(trace, np.zeros(1), frame, prob)  # limit on the box boundary
    assert rep.verdicts["lower"] == "inapplicable"


def _entropy_from(start, theta_star):
    cfg = json.loads((CONFIG_DIR / "entropy_simplex_md.json").read_text())
    return assemble(dict(cfg, theta0=f"random({start})", theta_star=theta_star))


@pytest.mark.parametrize("given", [True, False], ids=["given", "auto"])
@pytest.mark.parametrize("start", [15, 23, 37])
def test_entropy_random_starts_converge_and_pass(start, given):
    # near a face the residual rises for a while before it decays; that
    # transient once stopped these runs as stalled, far from the minimiser
    cfg_star = json.loads((CONFIG_DIR / "entropy_simplex_md.json").read_text())["theta_star"]
    asm = _entropy_from(start, cfg_star if given else "auto")
    run = analyze(asm.problem, asm.theta0, asm.theta_star, asm.stop)
    assert run.trace.stop_reason is StopReason.CONVERGED
    assert np.linalg.norm(run.trace.final - np.array(cfg_star)) <= 1e-9
    assert run.passed, run.verdicts


def test_verdicts_fail_on_a_trace_that_did_not_converge():
    # the first 28 steps from random(15), where a transient once stalled the run
    asm = _entropy_from(15, [0.5, 0.3, 0.2])
    trace = iterate(asm.problem, asm.theta0, StopRule(max_iters=28))
    assert len(trace) == 29 and trace.stop_reason is not StopReason.CONVERGED
    frame = curvature_at(asm.problem, asm.theta_star)
    rep = verdicts(trace, asm.theta_star, frame, asm.problem)
    assert rep.verdicts == {k: "fail" for k in ("upper", "lower", "exact", "q_gap")}
    assert not rep.passed


@pytest.mark.parametrize("rho_sup", [0.5, 1.0, 2.0])
def test_a_trace_without_steps_is_its_own_limit(rho_sup):
    # a start that the map keeps fixed converges at once; it passes only within
    # ten times the floor (1e-12 here) of theta*
    prob = _gd([1.0, 4.0], 0.4)
    frame = dataclasses.replace(curvature_at(prob, np.zeros(2)), spectrum=np.array([0.5, rho_sup]))
    for start, passed in ((1.0, False), (1e-11, False), (1e-12, True), (0.0, True)):
        trace = Trace(iterates=[np.full(2, start)], stop_reason=StopReason.CONVERGED)
        rep = verdicts(trace, np.zeros(2), frame, prob)
        if passed:
            assert rep.passed and rep.verdicts["upper"] == "pass", rep.verdicts
        else:
            assert rep.verdicts == dict.fromkeys(("upper", "lower", "exact", "q_gap"), "fail")


def test_span_warning_on_concentrated_trace():
    star = np.zeros(2)
    trace = _synthetic_trace(0.6, 60, np.array([1.0, 0.0]), star)  # single direction
    prob = _gd([1.0, 4.0], 0.4)
    frame = curvature_at(prob, star)
    rep = verdicts(trace, star, frame, prob)
    assert rep.span_warning
    full = _synthetic_trace(0.6, 60, np.array([1.0, 1.0]), star)
    # two directional components decaying at one rate still span only a line
    assert verdicts(full, star, frame, prob).span_warning


def test_a_faint_second_direction_still_spans_the_plane():
    # the window's second singular value is about 9e-6 of its first: rank 2 under the 1e-8 cut
    star = np.zeros(2)
    pts = [0.6**k * np.array([1.0, 1e-5 * (-1) ** k]) for k in range(60)]
    trace = Trace(iterates=pts, stop_reason=StopReason.MAX_ITERS)
    prob = _gd([1.0, 4.0], 0.4)
    assert not verdicts(trace, star, curvature_at(prob, star), prob).span_warning


def test_prox_spectrum_map_values():
    frame_half = curvature_at(_gd([1.0], 1.0), np.zeros(1))
    pred = mirror_prox_spectrum_map(
        curvature_at(_gd([0.5], 1.0), np.zeros(1))
    )  # descent multiplier 1/2
    assert pred == pytest.approx((0.75, 0.75))
    assert pred.rho_sup < 1.0

    prob = _gd([0.8, 0.4], 1.0)  # descent spectrum {0.2, 0.6}
    pred = mirror_prox_spectrum_map(curvature_at(prob, np.zeros(2)))
    assert pred == pytest.approx((0.76, 0.84))
    assert pred.rho_sup < 1.0

    prob = _gd([1.1, 0.4], 1.0)  # descent spectrum {-0.1, 0.6}
    pred = mirror_prox_spectrum_map(curvature_at(prob, np.zeros(2)))
    assert pred.rho_sup == pytest.approx(1.11)
    assert pred.rho_sup >= 1.0


def test_the_spectrum_maps_read_their_pairs_through_spectrum_rate_pair(monkeypatch):
    frame = curvature_at(_gd([0.8, 0.4], 1.0), np.zeros(2))  # descent spectrum {0.2, 0.6}
    pair = linalg.spectrum_rate_pair
    monkeypatch.setattr(linalg, "spectrum_rate_pair",
                        lambda lam: linalg.RatePair(*reversed(pair(lam))))
    # the mapped spectra are {0.84, 0.76} and, at alpha = 0, {0.2, 0.6}: swapped pairs
    assert mirror_prox_spectrum_map(frame) == pytest.approx((0.84, 0.76))
    assert alpha_transform(frame, 0.0) == pytest.approx(0.2)


def test_prox_rates_strictly_dominate_descent_rates():
    rng = CounterRNG(71)
    for _ in range(25):
        lam = 0.05 + 0.9 * rng.uniform(3)  # descent spectrum inside (0, 1)
        eta = 1.0
        prob = _gd(list(1.0 - lam), eta)
        frame = curvature_at(prob, np.zeros(3))
        base = frame.rates
        pred = mirror_prox_spectrum_map(frame)
        assert pred.rho_sup > base.rho_sup
        assert pred.rho_inf >= 0.75 - 1e-9


def test_alpha_transform_and_optimal_alpha():
    pair = curvature_at(_pencil_problem([0.5]), np.zeros(1))  # EM spectrum {0.5}
    assert alpha_transform(pair, 0.0) == pytest.approx(0.5)
    alpha, rho = optimal_alpha(pair)
    assert (alpha, rho) == pytest.approx((0.5, 0.0))

    pair = curvature_at(_pencil_problem([0.3, 0.5]), np.zeros(2))  # EM spectrum {0.3, 0.5}
    alpha, rho = optimal_alpha(pair)
    assert alpha == pytest.approx(0.4)
    assert rho == pytest.approx(0.2 / 1.2)
    # grid scan over the transform index confirms the analytic optimum
    grid = np.linspace(0.0, 0.49, 4_000)
    worst = [alpha_transform(pair, a) for a in grid]
    best_idx = int(np.argmin(worst))
    assert grid[best_idx] == pytest.approx(alpha, abs=1e-3)
    assert worst[best_idx] == pytest.approx(rho, abs=1e-3)
    with pytest.raises(RatesError):
        alpha_transform(pair, 1.0)


def test_alpha_maps_keep_the_signs_of_a_mixed_sign_spectrum():
    # gradient descent on diag(1.3, 0.5) with step 1: spectrum {1 - 1.3, 1 - 0.5}, whose
    # absolute extremes (0.3, 0.5) would put the alpha map's sup at 1/3 and its optimum at 0.4
    prob = mirror_descent_problem(QuadraticForm(np.diag([1.3, 0.5])), QuadraticMap(2), 1.0,
                                  FullSpace(2))
    frame = curvature_at(prob, np.zeros(2))
    np.testing.assert_allclose(frame.spectrum, [-0.3, 0.5], rtol=0, atol=1e-12)
    j = np.linalg.solve(frame.a_tilde, frame.b_tilde)

    def sup_rate(alpha):
        """Spectral radius of the alpha map's Jacobian (J - alpha I) / (1 - alpha)."""
        return float(np.abs(np.linalg.eigvals((j - alpha * np.eye(2)) / (1.0 - alpha))).max())

    assert alpha_transform(frame, 0.25) == pytest.approx(0.55 / 0.75, rel=1e-12)
    assert alpha_transform(frame, 0.25) == pytest.approx(sup_rate(0.25), rel=1e-12)
    alpha, rho = optimal_alpha(frame)
    assert (alpha, rho) == pytest.approx((0.1, 4 / 9), rel=1e-12)
    assert rho == pytest.approx(sup_rate(alpha), rel=1e-12)
    grid = np.linspace(-0.5, 0.49, 991)  # step 1e-3
    worst = [sup_rate(a) for a in grid]
    best = int(np.argmin(worst))
    assert grid[best] == pytest.approx(alpha, abs=1e-3)
    assert rho <= worst[best] + 1e-12


def test_accelerate_exact_on_affine_iterations():
    # the EM map is affine, so one extrapolation recovers its fixed point
    em = em_population_problem(GaussianLatentModel(1.0, 1.0, theta_star=1.0))
    theta_n = np.array([1.1])
    theta_n1 = inner_minimize(em, theta_n)
    acc = accelerate(theta_n, theta_n1, curvature_at(em, theta_n))
    assert abs(acc[0] - 1.0) <= 1e-12
    assert abs(theta_n1[0] - 1.0) == pytest.approx(0.05)


def test_accelerate_is_newton_on_quadratics():
    prob = _gd([1.0, 4.0], 0.4)
    theta0 = np.array([1.0, 1.0])
    theta1 = inner_minimize(prob, theta0)
    acc = accelerate(theta0, theta1, curvature_at(prob, theta0))
    assert np.linalg.norm(acc) <= 1e-12


def test_accelerate_singular_map():
    em = em_population_problem(GaussianLatentModel(1.0, 1.0, theta_star=0.0))
    frame = curvature_at(em, np.zeros(1))
    degenerate = type(frame)(
        a_star=frame.a_star,
        b_star=frame.a_star,  # B = A makes I - A^{-1}B singular
        basis=frame.basis,
        a_tilde=frame.a_tilde,
        b_tilde=frame.a_tilde,
        asymmetry_diag=0.0,
        spectrum=None,
    )
    with pytest.raises(RatesError, match=r"I - A~\^\{-1\} B~ is numerically singular"):
        accelerate(np.zeros(1), np.ones(1), degenerate)
    # a singular A~ fails inside the solve itself
    singular = dataclasses.replace(degenerate, a_tilde=np.zeros((1, 1)))
    with pytest.raises(RatesError, match="Singular matrix"):
        accelerate(np.zeros(1), np.ones(1), singular)


@pytest.mark.parametrize("gap, singular", [(1e-13, True), (1e-11, False)])
def test_accelerate_refuses_a_condition_number_above_1e12(gap, singular):
    # A~ = I and B~ = diag(0, 1 - gap): I - A~^{-1} B~ = diag(1, gap) has condition 1/gap
    b = np.diag([0.0, 1.0 - gap])
    frame = CurvatureFrame(a_star=np.eye(2), b_star=b, basis=np.eye(2), a_tilde=np.eye(2),
                           b_tilde=b, asymmetry_diag=0.0, spectrum=np.array([0.0, 1.0 - gap]))
    theta_n, theta_np1 = np.zeros(2), np.array([0.5, 1e-12])
    if singular:
        with pytest.raises(RatesError, match=r"I - A~\^\{-1\} B~ is numerically singular"):
            accelerate(theta_n, theta_np1, frame)
    else:
        np.testing.assert_allclose(accelerate(theta_n, theta_np1, frame),
                                   [0.5, 1e-12 / (1.0 - (1.0 - gap))], rtol=1e-15)


def test_reparam_identity_map_is_exactly_invariant():
    em = em_population_problem(GaussianLatentModel(1.0, 1.0, theta_star=1.0))
    base, pulled = reparam_invariance_check(
        em,
        np.array([1.0]),
        psi=lambda t: np.asarray(t, dtype=float),
        psi_inv=lambda t: np.asarray(t, dtype=float),
        dpsi=lambda t: np.eye(1),
    )
    assert base == pytest.approx(pulled, abs=1e-12)


def test_reparam_interior_invariance_quadratic_warp():
    em = em_population_problem(GaussianLatentModel(1.0, 1.0, theta_star=1.0))
    base, pulled = reparam_invariance_check(
        em,
        np.array([1.0]),
        psi=lambda t: t + 0.1 * t * t,
        psi_inv=lambda t: (-1.0 + np.sqrt(1.0 + 0.4 * np.asarray(t))) / 0.2,
        dpsi=lambda t: np.diag(1.0 + 0.2 * np.atleast_1d(t)),
    )
    assert abs(base.rho_sup - pulled.rho_sup) <= 1e-5
    assert abs(base.rho_inf - pulled.rho_inf) <= 1e-5
