"""Registered verification experiments with pinned tolerances.

Every experiment checks one analytically tractable configuration end to end:
build the problem, run it, extract curvature, and compare measured decay
against the value the theory pins down.  All tolerances are fixed here; the
suite passes or fails with no knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lemmas as lemma_suites
from .descent import mirror_descent_problem, mirror_prox_problem, newton_problem
from .domains import Box, EuclideanBall, FullSpace, Simplex
from .latent import GaussianLatentModel, TwoComponentMixture, alpha_em_problem, em_population_problem
from .mirror_maps import BallMap, NegEntropyMap, QuadraticMap
from .objectives import Quartic1D, QuadraticForm, ShiftedQuadratic
from .rates import (
    accelerate,
    alpha_transform,
    curvature_at,
    decay_estimate,
    default_floor,
    mirror_prox_spectrum_map,
    optimal_alpha,
    reparam_invariance_check,
    theoretical_rates,
)
from .rng import CounterRNG
from .runner import analyze
from .surrogate import StopRule, SurrogateProblem, inner_minimize, iterate
from .sweep import sample_rate_sweep


@dataclass
class ExperimentResult:
    name: str
    description: str
    passed: bool
    measured: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name:4s} {status}  {self.description}"


def _gd_problem(diag, eta):
    f = QuadraticForm(np.diag(diag))
    return mirror_descent_problem(f, QuadraticMap(len(diag)), eta, FullSpace(len(diag)))


def e1_gradient_descent_rate() -> ExperimentResult:
    """Quadratic objective diag(1,4), step 0.4: both rates 0.6, measured to 5e-3."""
    rep = analyze(_gd_problem([1.0, 4.0], 0.4), np.array([1.0, 1.0]), np.zeros(2)).report
    theory_gap = max(abs(rep.theory.rho_inf - 0.6), abs(rep.theory.rho_sup - 0.6))
    emp_gap = abs(rep.empirical_rate - 0.6)
    all_pass = all(v == "pass" for v in rep.verdicts.values())
    return ExperimentResult(
        "E1",
        "gradient descent diag(1,4) eta=0.4: rates 0.6, four verdicts pass",
        passed=bool(theory_gap <= 1e-9 and emp_gap <= 5e-3 and all_pass),
        measured={
            "rho_inf": rep.theory.rho_inf,
            "rho_sup": rep.theory.rho_sup,
            "empirical_rate": rep.empirical_rate,
            "verdicts": dict(rep.verdicts),
        },
    )


def e2_exact_rate_regime() -> ExperimentResult:
    """diag(1,1.5), step 0.4: rate pair (0.4, 0.6) sits in the exact-rate regime."""
    rep = analyze(_gd_problem([1.0, 1.5], 0.4), np.array([1.0, 1.0]), np.zeros(2)).report
    pair_ok = abs(rep.theory.rho_inf - 0.4) <= 1e-9 and abs(rep.theory.rho_sup - 0.6) <= 1e-9
    regime_ok = rep.theory.rho_sup**2 <= rep.theory.rho_inf
    emp_ok = abs(np.log(rep.empirical_rate) - np.log(0.6)) <= 0.02
    return ExperimentResult(
        "E2",
        "exact-rate regime diag(1,1.5) eta=0.4: limit log-rate = log 0.6",
        passed=bool(pair_ok and regime_ok and emp_ok and rep.verdicts["exact"] == "pass"),
        measured={
            "rho_inf": rep.theory.rho_inf,
            "rho_sup": rep.theory.rho_sup,
            "empirical_rate": rep.empirical_rate,
            "exact_verdict": rep.verdicts["exact"],
        },
    )


def _prox_identity_case(f, phi, eta, domain, star, theta0):
    md = mirror_descent_problem(f, phi, eta, domain)
    prox = mirror_prox_problem(f, phi, eta, domain)
    md_frame = curvature_at(md, star)
    run = analyze(prox, theta0, star)
    s = np.linalg.solve(md_frame.a_tilde, md_frame.b_tilde)
    predicted_pencil = s @ s - s + np.eye(md_frame.d)
    actual_pencil = np.linalg.solve(run.frame.a_tilde, run.frame.b_tilde)
    identity_gap = float(np.max(np.abs(actual_pencil - predicted_pencil)))
    pred = mirror_prox_spectrum_map(md_frame)
    return identity_gap, pred, run.report


def e3_prox_spectrum_identity() -> ExperimentResult:
    """Extragradient pencil equals x^2-x+1 of the descent pencil; rates match traces."""
    gap_q, pred_q, rep_q = _prox_identity_case(
        QuadraticForm(np.diag([1.0, 1.25])),
        QuadraticMap(2),
        0.5,
        FullSpace(2),
        np.zeros(2),
        np.array([1.0, 1.0]),
    )
    center = np.array([0.5, 0.3, 0.2])
    gap_e, pred_e, rep_e = _prox_identity_case(
        ShiftedQuadratic(center),
        NegEntropyMap(3),
        0.2,
        Simplex(3),
        center,
        np.array([0.2, 0.3, 0.5]),
    )
    match_q = abs(rep_q.empirical_rate - pred_q.rho_sup) <= 0.02
    match_e = abs(rep_e.empirical_rate - pred_e.rho_sup) <= 0.02
    lower_ok = pred_q.rho_inf >= 0.75 - 1e-9 and pred_e.rho_inf >= 0.75 - 1e-9
    return ExperimentResult(
        "E3",
        "extragradient spectrum map on quadratic and entropy-simplex setups",
        passed=bool(gap_q <= 1e-6 and gap_e <= 1e-6 and match_q and match_e and lower_ok),
        measured={
            "identity_gap_quadratic": gap_q,
            "identity_gap_entropy": gap_e,
            "predicted_rate_quadratic": pred_q.rho_sup,
            "empirical_rate_quadratic": rep_q.empirical_rate,
            "predicted_rate_entropy": pred_e.rho_sup,
            "empirical_rate_entropy": rep_e.empirical_rate,
            "prox_rho_inf_quadratic": pred_q.rho_inf,
            "prox_rho_inf_entropy": pred_e.rho_inf,
        },
    )


def e4_population_em_ratio() -> ExperimentResult:
    """Equal variances: the infinite-data EM contracts at exactly one half."""
    model = GaussianLatentModel(1.0, 1.0, theta_star=1.0)
    prob = em_population_problem(model)
    star = np.array([1.0])
    run = analyze(prob, np.array([2.0]), star)
    frame, rep = run.frame, run.report
    frame_fd = curvature_at(prob, star, prefer_analytic=False)
    curv_gap = max(
        abs(frame.a_tilde[0, 0] - 1.0),
        abs(frame.b_tilde[0, 0] - 0.5),
        abs(frame_fd.a_tilde[0, 0] - frame.a_tilde[0, 0]),
        abs(frame_fd.b_tilde[0, 0] - frame.b_tilde[0, 0]),
    )
    rate_ok = (
        abs(rep.theory.rho_sup - 0.5) <= 5e-3
        and abs(rep.theory.rho_inf - 0.5) <= 5e-3
        and abs(rep.empirical_rate - 0.5) <= 5e-3
    )
    return ExperimentResult(
        "E4",
        "population EM missing-information ratio 1/2, analytic vs finite-difference",
        passed=bool(curv_gap <= 1e-6 and rate_ok and rep.passed),
        measured={
            "rho_sup": rep.theory.rho_sup,
            "empirical_rate": rep.empirical_rate,
            "curvature_gap": curv_gap,
            "verdicts": dict(rep.verdicts),
        },
    )


def e5_sample_rate_convergence() -> ExperimentResult:
    """Sample rates settle on the infinite-data rate as the dataset grows."""
    ks = [100, 400, 1600, 6400]
    seeds = list(range(16))
    mix = sample_rate_sweep(TwoComponentMixture(theta_star=1.0), ks, seeds)
    gauss = sample_rate_sweep(GaussianLatentModel(1.0, 1.0, theta_star=1.0), ks, seeds)
    medians = [row.median_abs_dev for row in mix.summary]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    gauss_max = max(row.abs_dev for row in gauss.rows)
    return ExperimentResult(
        "E5",
        "sample-rate sweep: mixture medians strictly decreasing, gaussian exact",
        passed=bool(decreasing and gauss_max <= 1e-6),
        measured={"mixture_medians": medians, "gaussian_max_dev": gauss_max},
    )


def e6_alpha_em_optimum() -> ExperimentResult:
    """Index 1/2 kills the rate entirely; index 1/4 lands on the mapped value 1/3."""
    model = GaussianLatentModel(1.0, 1.0, theta_star=1.0)
    star = np.array([1.0])
    em_rates = theoretical_rates(curvature_at(em_population_problem(model), star))
    alpha_opt, rho_opt = optimal_alpha(em_rates)

    prob_half = alpha_em_problem(model, 0.5, mode="population")
    trace_half = iterate(prob_half, np.array([2.0]))
    est_half = decay_estimate(trace_half.errors(star), default_floor(star))

    prob_quarter = alpha_em_problem(model, 0.25, mode="population")
    trace_quarter = iterate(prob_quarter, np.array([2.0]))
    est_quarter = decay_estimate(trace_quarter.errors(star), default_floor(star))
    predicted_quarter = alpha_transform(em_rates, 0.25)

    ok = (
        abs(alpha_opt - 0.5) <= 1e-9
        and abs(rho_opt) <= 1e-9
        and est_half.rate < 0.05
        and abs(est_quarter.rate - predicted_quarter) <= 0.02
    )
    return ExperimentResult(
        "E6",
        "alpha-EM: optimum at 1/2 is superlinear, 1/4 contracts at 1/3",
        passed=bool(ok),
        measured={
            "alpha_opt": alpha_opt,
            "rho_opt": rho_opt,
            "rate_at_half": est_half.rate,
            "rate_at_quarter": est_quarter.rate,
            "predicted_quarter": predicted_quarter,
        },
    )


def e7_newton_curvature() -> ExperimentResult:
    """Newton: identity/zero curvature at the minimum, quadratic residual decay."""
    prob = newton_problem(Quartic1D())
    star = np.zeros(1)
    frame = curvature_at(prob, star)
    curv_gap = max(abs(frame.a_tilde[0, 0] - 1.0), abs(frame.b_tilde[0, 0]))
    trace = iterate(prob, np.array([1.0]))
    errors = trace.errors(star)
    quad_ok = all(
        errors[n + 1] <= 2.0 * errors[n] ** 2 + 1e-15
        for n in range(len(errors) - 1)
        if errors[n] < 0.1
    )
    return ExperimentResult(
        "E7",
        "Newton on the quartic: curvature (1, 0), residuals square each step",
        passed=bool(curv_gap <= 1e-6 and quad_ok),
        measured={
            "a_tilde": float(frame.a_tilde[0, 0]),
            "b_tilde": float(frame.b_tilde[0, 0]),
            "errors": [float(e) for e in errors[:8]],
        },
    )


def e8_surrogate_gap_decay() -> ExperimentResult:
    """Surrogate values close their gap at least as fast as the iterates."""
    results = {}
    ok = True
    for tag, builder, theta0, star in (
        ("gd", lambda: _gd_problem([1.0, 4.0], 0.4), np.array([1.0, 1.0]), np.zeros(2)),
        (
            "em",
            lambda: em_population_problem(GaussianLatentModel(1.0, 1.0, theta_star=1.0)),
            np.array([2.0]),
            np.array([1.0]),
        ),
    ):
        rep = analyze(builder(), theta0, star).report
        results[f"{tag}_q_gap_rate"] = rep.q_gap_rate
        results[f"{tag}_rho_sup"] = rep.theory.rho_sup
        ok = ok and rep.q_gap_rate is not None and rep.q_gap_rate <= rep.theory.rho_sup + 0.02
    return ExperimentResult(
        "E8",
        "surrogate-gap decay bounded by the sup rate (gradient descent and EM)",
        passed=bool(ok),
        measured=results,
    )


def e9_ball_map_global_convergence() -> ExperimentResult:
    """Extragradient with the boundary-diverging ball map converges from anywhere."""
    target = np.array([0.3, -0.2])
    f = ShiftedQuadratic(target)
    phi = BallMap(2, r2=4.0)
    feasible = EuclideanBall(np.zeros(2), 1.0)
    eta = 0.4  # strong convexity 2/r2 = 0.5, smoothness 1: eta < gamma/beta
    prox = mirror_prox_problem(f, phi, eta, feasible)
    rng = CounterRNG(2024)
    starts = [np.array([1.0 - 1e-3, 0.0]), np.array([-(1.0 - 1e-3), 0.0])]
    while len(starts) < 8:
        starts.append(feasible.sample(rng))
    errors = []
    for theta0 in starts:
        trace = iterate(prox, theta0, StopRule(max_iters=3000, residual_tol=1e-14))
        errors.append(float(np.linalg.norm(trace.final - target)))
    worst = max(errors)
    return ExperimentResult(
        "E9",
        "ball-map extragradient: 8 starts incl. near-boundary all reach the minimizer",
        passed=bool(worst <= 1e-10),
        measured={"worst_error": worst, "errors": errors, "eta": eta, "gamma_over_beta": 0.5},
    )


def e10_linalg_property_suites() -> ExperimentResult:
    """Randomized identities behind the rate machinery: 1000 trials each, dims 1-8."""
    results = lemma_suites.run_all(trials=1000, seed=0)
    failures = {r.name: len(r.failures) for r in results}
    return ExperimentResult(
        "E10",
        "linear-algebra property suites, 1000 randomized trials per lemma",
        passed=all(r.passed for r in results),
        measured={"failures": failures, "trials": {r.name: r.trials for r in results}},
    )


def e11_acceleration() -> ExperimentResult:
    """One extrapolation step lands on the fixed point of affine iterations."""
    model = GaussianLatentModel(1.0, 1.0, theta_star=1.0)
    em = em_population_problem(model)
    theta_n = np.array([1.1])
    theta_n1 = inner_minimize(em, theta_n)
    em_frame = curvature_at(em, theta_n)
    em_acc = accelerate(theta_n, theta_n1, em_frame)
    em_plain = abs(float(theta_n1[0]) - 1.0)
    em_err = abs(float(em_acc[0]) - 1.0)

    gd = _gd_problem([1.0, 4.0], 0.4)
    theta0 = np.array([1.0, 1.0])
    theta1 = inner_minimize(gd, theta0)
    gd_frame = curvature_at(gd, theta0)
    gd_acc = accelerate(theta0, theta1, gd_frame)
    gd_err = float(np.linalg.norm(gd_acc))

    passed = em_err <= 1e-8 and abs(em_plain - 0.05) <= 1e-12 and gd_err <= 1e-10
    return ExperimentResult(
        "E11",
        "acceleration: EM error 5e-2 -> <=1e-8, gradient descent recovers the minimizer",
        passed=bool(passed),
        measured={"em_plain_error": em_plain, "em_accel_error": em_err, "gd_accel_error": gd_err},
    )


def e12_reparametrization() -> ExperimentResult:
    """Rates are invariant under interior changes of variables, not at the boundary."""
    model = GaussianLatentModel(1.0, 1.0, theta_star=1.0)
    em = em_population_problem(model)

    def psi(t):
        return t + 0.1 * t * t

    def psi_inv(t):
        return (-1.0 + np.sqrt(1.0 + 0.4 * np.asarray(t))) / 0.2

    def dpsi(t):
        return np.diag(1.0 + 0.2 * np.atleast_1d(t))

    base, pulled = reparam_invariance_check(em, np.array([1.0]), psi, psi_inv, dpsi)
    interior_gap = max(abs(base.rho_inf - pulled.rho_inf), abs(base.rho_sup - pulled.rho_sup))

    # boundary fixed point: quadratic-coupling surrogate on [1, 10]
    boundary = SurrogateProblem(
        q=1,
        domain=Box([1.0], [10.0]),
        eval_q=lambda t, u: float(t[0] ** 2 - t[0] * u[0] + u[0] ** 2),
        grad2=lambda t, u: np.array([2.0 * u[0] - t[0]]),
        label="boundary_counterexample",
    )
    exponent = 0.4
    rates_orig, rates_rep = reparam_invariance_check(
        boundary,
        np.array([1.0]),
        psi=lambda t: np.asarray(t) ** exponent,
        psi_inv=lambda t: np.asarray(t) ** (1.0 / exponent),
        dpsi=lambda t: np.diag(exponent * np.atleast_1d(t) ** (exponent - 1.0)),
        transformed_domain=Box([1.0], [10.0 ** (1.0 / exponent)]),
    )
    boundary_gap = max(
        abs(rates_orig.rho_inf - 0.5),
        abs(rates_orig.rho_sup - 0.5),
        abs(rates_rep.rho_inf - 2.0),
        abs(rates_rep.rho_sup - 2.0),
    )
    return ExperimentResult(
        "E12",
        "reparametrization: interior invariance to 1e-5, boundary pair (0.5, 2.0)",
        passed=bool(interior_gap <= 1e-5 and boundary_gap <= 1e-3),
        measured={
            "interior_gap": interior_gap,
            "original_rate": rates_orig.rho_sup,
            "reparam_rate": rates_rep.rho_sup,
        },
    )


REGISTRY = {
    "E1": e1_gradient_descent_rate,
    "E2": e2_exact_rate_regime,
    "E3": e3_prox_spectrum_identity,
    "E4": e4_population_em_ratio,
    "E5": e5_sample_rate_convergence,
    "E6": e6_alpha_em_optimum,
    "E7": e7_newton_curvature,
    "E8": e8_surrogate_gap_decay,
    "E9": e9_ball_map_global_convergence,
    "E10": e10_linalg_property_suites,
    "E11": e11_acceleration,
    "E12": e12_reparametrization,
}


def run_experiment(name: str) -> ExperimentResult:
    return REGISTRY[name]()


def run_suite() -> list[ExperimentResult]:
    return [run_experiment(name) for name in REGISTRY]
