"""Curvature extraction, theoretical rate pairs and empirical decay estimation.

The asymptotic behavior of a surrogate-minimization scheme near a fixed point
theta* is governed by two matrices: the second derivative of the surrogate in
its minimization slot (A*) and the negated mixed derivative (-d12 Q = B*),
both reduced to the direction space of the feasible set.  The extreme absolute
generalized Rayleigh quotients of the reduced pencil bound the geometric decay
of the iterates from above and below, coincide with it when the upper rate
squared does not exceed the lower rate, and transform in closed form under the
extragradient and alpha-EM variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .domains import ConvexDomain
from .errors import SurroError
from .linalg import NotPositiveDefinite, RatePair
from .surrogate import StopReason, SurrogateProblem, Trace

DEFAULT_BURN_IN = 0.3
MIN_WINDOW_POINTS = 10
DEFAULT_RATE_TOL = 0.02
REFERENCE_TOL = 1e-9  # membership slack of a fixed point theta* given for analysis
FD_STEP = 1e-4  # central-difference step relative to 1 + |theta*|, Richardson-refined


class RatesError(SurroError):
    pass


class H4Violated(RatesError):
    """The reduced curvature matrix A is not positive-definite."""


class SingularAcceleration(RatesError):
    pass


class InfeasiblePerturbation(RatesError):
    pass


@dataclass(frozen=True)
class CurvatureFrame:
    """Curvature pair at a point, with its direction-space reduction.

    a_star/b_star live in the ambient space; a_tilde/b_tilde are the
    congruence reductions through the orthonormal basis columns.  When the
    derivatives were only probed along the direction space, the ambient
    matrices are the lifted reductions.  `rates` is the rate pair of the
    reduced pencil, or None when a_tilde is not positive-definite.
    """

    a_star: np.ndarray
    b_star: np.ndarray
    basis: np.ndarray
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    asymmetry_diag: float
    rates: Optional[RatePair]

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    @property
    def h4_pass(self) -> bool:
        """H4 (u'A~u > |u'B~u| for every u != 0): A~ is PD and rho_sup < 1."""
        return self.rates is not None and self.rates.rho_sup < 1.0


def direction_basis(domain: ConvexDomain, theta_star) -> np.ndarray:
    """Orthonormal basis of the feasible-difference span, as q x d columns."""
    point = np.atleast_1d(np.asarray(theta_star, dtype=float))
    if not domain.contains(point, tol=REFERENCE_TOL):
        raise RatesError(f"reference point {point} is outside the domain")
    return domain.direction_basis()


def _directional(gfun: Callable, base: np.ndarray, direction: np.ndarray, h: float):
    """Richardson-refined central difference of gfun along direction at base."""
    def probe(hh):
        try:
            plus = np.asarray(gfun(base + hh * direction), dtype=float)
            minus = np.asarray(gfun(base - hh * direction), dtype=float)
        except Exception as exc:  # noqa: BLE001 - surfaced with context
            raise InfeasiblePerturbation(
                f"surrogate evaluation failed at offset {hh:g} along {direction}: {exc}"
            ) from exc
        out = (plus - minus) / (2.0 * hh)
        if not np.all(np.isfinite(out)):
            raise InfeasiblePerturbation(f"non-finite derivative probe at offset {hh:g}")
        return out

    coarse = probe(h)
    fine = probe(0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def curvature_at(
    problem: SurrogateProblem,
    theta_star,
    *,
    prefer_analytic: bool = True,
) -> CurvatureFrame:
    """Curvature frame of the surrogate at a (near-)fixed point.

    Uses the problem's analytic second derivatives when present, otherwise
    Richardson-refined central differences of grad2 (step FD_STEP) along
    direction-space columns, so constrained problems are only ever probed
    inside their affine hull.  The mixed block is symmetrized and its
    pre-symmetrization asymmetry retained.

    The rate pair of the reduced pencil is computed once here and carried
    by the frame; it is None when A~ is not positive-definite, which is also
    when theoretical_rates raises H4Violated and h4_pass is False.
    """
    star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    p = direction_basis(problem.domain, star)
    h = FD_STEP * (1.0 + float(np.linalg.norm(star)))

    def block(analytic, probed, sign):
        """(ambient, reduced, asymmetry) of sign x one second-derivative block."""
        if prefer_analytic and analytic is not None:
            raw = sign * np.asarray(analytic(star, star), dtype=float)
            ambient = linalg.symmetrize(raw)
            return ambient, linalg.symmetrize(p.T @ ambient @ p), linalg.asymmetry(raw)
        cols = [_directional(probed, star, p[:, j], h) for j in range(p.shape[1])]
        raw = sign * (p.T @ np.column_stack(cols))
        reduced = linalg.symmetrize(raw)
        return p @ reduced @ p.T, reduced, linalg.asymmetry(raw)

    a_star, a_tilde, _ = block(problem.hess22, lambda u: problem.grad2(star, u), 1.0)
    b_star, b_tilde, asym = block(problem.hess12, lambda t: problem.grad2(t, star), -1.0)

    try:
        rates = linalg.generalized_rate_pair(a_tilde, b_tilde)
    except NotPositiveDefinite:
        rates = None

    return CurvatureFrame(
        a_star=a_star,
        b_star=b_star,
        basis=p,
        a_tilde=a_tilde,
        b_tilde=b_tilde,
        asymmetry_diag=float(asym),
        rates=rates,
    )


def theoretical_rates(frame: CurvatureFrame) -> RatePair:
    """Extreme absolute Rayleigh quotients of the reduced curvature pencil."""
    if frame.rates is None:
        raise H4Violated("reduced curvature matrix A~ is not positive-definite")
    return frame.rates


@dataclass(frozen=True)
class DecayEstimate:
    """Windowed log-error decay: least-squares slope and median step ratio."""

    slope: Optional[float]
    successive_ratio: Optional[float]
    rate: float  # exp(slope), or the last contraction factor on short windows
    n_usable: int
    superlinear: bool
    window_empty: bool
    window: tuple[int, int]


def decay_estimate(errors: np.ndarray, floor: float) -> DecayEstimate:
    """Estimate the geometric decay of a positive error sequence.

    The analysis window drops the DEFAULT_BURN_IN fraction and everything at or
    below the numerical floor.  When fewer than MIN_WINDOW_POINTS samples
    survive but the sequence has clearly collapsed, the estimate degrades
    gracefully to the last observed contraction factor and is flagged
    superlinear.
    """
    e = np.asarray(errors, dtype=float)
    n = e.size
    start = int(math.floor(DEFAULT_BURN_IN * n))
    usable = [i for i in range(start, n) if e[i] > floor]

    ratios_all = [e[i + 1] / e[i] for i in range(n - 1) if e[i] > floor]
    if len(usable) >= MIN_WINDOW_POINTS:
        idx = np.array(usable)
        usable_set = set(usable)
        slope = float(np.polyfit(idx, np.log(e[idx]), 1)[0])
        pair_ratios = [e[i + 1] / e[i] for i in idx[:-1] if i + 1 in usable_set]
        ratio = float(np.median(pair_ratios)) if pair_ratios else None
        return DecayEstimate(
            slope=slope,
            successive_ratio=ratio,
            rate=float(np.exp(slope)),
            n_usable=len(usable),
            superlinear=False,
            window_empty=False,
            window=(int(idx[0]), int(idx[-1])),
        )

    if not ratios_all:
        return DecayEstimate(None, None, 0.0, len(usable), False, True, (0, 0))

    last = float(ratios_all[-1])
    collapsed = e[-1] <= 10.0 * floor
    shrinking = last <= 0.5 * ratios_all[0] or len(ratios_all) == 1
    return DecayEstimate(
        slope=float(np.log(last)) if last > 0 else None,
        successive_ratio=last,
        rate=last,
        n_usable=len(usable),
        superlinear=bool(collapsed and shrinking),
        window_empty=len(usable) == 0,
        window=(start, n - 1),
    )


def default_floor(theta_star) -> float:
    return 1e-12 * (1.0 + float(np.linalg.norm(np.atleast_1d(theta_star))))


@dataclass(frozen=True)
class RateReport:
    """Theory vs measurement, with one verdict per asymptotic claim.

    Verdict keys: "upper" (measured decay bounded by the sup rate), "lower"
    (bounded below by the inf rate, interior limits only), "exact" (the two
    coincide when sup^2 <= inf) and "q_gap" (surrogate values converge at
    least as fast as the iterates).  q_gaps holds the signed surrogate gap
    Q(theta_n, theta_{n+1}) - Q(theta*, theta*) of every step.
    """

    theory: RatePair
    empirical_slope: Optional[float]
    successive_ratio: Optional[float]
    empirical_rate: float
    q_gap_slope: Optional[float]
    q_gap_rate: Optional[float]
    superlinear: bool
    span_warning: bool
    verdicts: dict[str, str]
    q_gaps: tuple[float, ...]
    tol_rate: float = DEFAULT_RATE_TOL

    @property
    def passed(self) -> bool:
        return all(v in ("pass", "inapplicable") for v in self.verdicts.values())


def _span_warning(trace: Trace, theta_star, est: DecayEstimate, d: int) -> bool:
    if d <= 1:
        return False
    lo, hi = est.window
    deltas = np.array([t - theta_star for t in trace.iterates[lo : hi + 1]])
    # a window of k < d rows has at most k singular values; all are 0 when sv[0] is
    sv = np.linalg.svd(deltas, compute_uv=False)
    return int(np.sum(sv > sv[0] * 1e-8)) < d


def verdicts(
    trace: Trace, theta_star, frame: CurvatureFrame, problem: SurrogateProblem
) -> RateReport:
    """Check the measured decay of a trace against its theoretical rate pair.

    Every rate comparison allows DEFAULT_RATE_TOL; the surrogate gap is
    measured against Q at the fixed point, and is inapplicable on a trace
    without steps.  A trace that did not converge fails every verdict.
    """
    star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    theory = theoretical_rates(frame)
    est = decay_estimate(trace.errors(star), default_floor(star))
    rate_emp = est.rate
    interior = bool(problem.domain.is_interior(star))

    out: dict[str, str] = {}
    out["upper"] = "pass" if rate_emp <= theory.rho_sup + DEFAULT_RATE_TOL else "fail"

    if not interior or est.window_empty:
        out["lower"] = "inapplicable"
    else:
        out["lower"] = "pass" if rate_emp >= theory.rho_inf - DEFAULT_RATE_TOL else "fail"

    exact_applicable = theory.rho_sup**2 <= theory.rho_inf + 1e-12 and interior
    if not exact_applicable or est.window_empty:
        out["exact"] = "inapplicable"
    else:
        out["exact"] = "pass" if abs(rate_emp - theory.rho_sup) <= DEFAULT_RATE_TOL else "fail"

    q_gap_slope = q_gap_rate = None
    q_gaps: tuple[float, ...] = ()
    if len(trace) > 1:
        q_star = float(problem.eval_q(star, star))
        q_gaps = tuple((trace.q_values(problem) - q_star).tolist())
        est_q = decay_estimate(np.abs(q_gaps), 1e-12 * (1.0 + abs(q_star)))
        q_gap_slope = est_q.slope
        q_gap_rate = est_q.rate
        out["q_gap"] = "pass" if est_q.rate <= theory.rho_sup + DEFAULT_RATE_TOL else "fail"
    else:
        out["q_gap"] = "inapplicable"

    if trace.stop_reason is not StopReason.CONVERGED:
        out = dict.fromkeys(out, "fail")

    return RateReport(
        theory=theory,
        empirical_slope=est.slope,
        successive_ratio=est.successive_ratio,
        empirical_rate=rate_emp,
        q_gap_slope=q_gap_slope,
        q_gap_rate=q_gap_rate,
        superlinear=est.superlinear,
        span_warning=_span_warning(trace, star, est, frame.d),
        verdicts=out,
        q_gaps=q_gaps,
    )


def mirror_prox_spectrum_map(md_frame: CurvatureFrame) -> RatePair:
    """Extragradient rate pair: the descent spectrum pushed through x -> x^2 - x + 1.

    The extragradient scheme's reduced pencil equals that polynomial in the
    descent pencil, so its rate pair is read off the mapped spectrum.  Values
    map into [3/4, 1) exactly when the descent spectrum lies in (0, 1); the
    scheme contracts when rho_sup < 1.
    """
    try:
        spectrum = linalg.whitened_eigenvalues(md_frame.a_tilde, md_frame.b_tilde)
    except NotPositiveDefinite as exc:
        raise H4Violated(str(exc)) from exc
    abs_mapped = np.abs(spectrum**2 - spectrum + 1.0)
    return RatePair(float(abs_mapped.min()), float(abs_mapped.max()))


def alpha_transform(md_rates: RatePair, alpha: float) -> float:
    """Predicted sup rate of the alpha variant from the plain EM rate pair.

    The alpha spectrum is the affine image x -> (x - alpha)/(1 - alpha) of
    the EM spectrum, so the sup is attained at one of the two endpoints.
    """
    if alpha == 1.0:
        raise RatesError("alpha = 1 is excluded")
    g = lambda x: (x - alpha) / (1.0 - alpha)
    return max(abs(g(md_rates.rho_inf)), abs(g(md_rates.rho_sup)))


def optimal_alpha(md_rates: RatePair) -> tuple[float, float]:
    """Index midway between the EM rate extremes, and the rate it achieves."""
    lo, hi = md_rates.rho_inf, md_rates.rho_sup
    alpha = 0.5 * (lo + hi)
    rho = (hi - lo) / (2.0 - hi - lo)
    return alpha, rho


def accelerate(theta_n, theta_np1, frame: CurvatureFrame) -> np.ndarray:
    """Extrapolate to the fixed point by inverting the local linearization.

    Solves (I - A~^{-1} B~) on the last increment in the direction space;
    exact whenever the iteration map is affine and the frame matches it.
    """
    tn = np.atleast_1d(np.asarray(theta_n, dtype=float))
    tn1 = np.atleast_1d(np.asarray(theta_np1, dtype=float))
    p = frame.basis
    try:
        s = np.linalg.solve(frame.a_tilde, frame.b_tilde)
        g = np.eye(frame.d) - s
        if np.linalg.cond(g) > 1e12:
            raise SingularAcceleration("I - A~^{-1} B~ is numerically singular")
        shift = np.linalg.solve(g, p.T @ (tn1 - tn))
    except np.linalg.LinAlgError as exc:
        raise SingularAcceleration(str(exc)) from exc
    return tn + p @ shift


def reparam_invariance_check(
    problem: SurrogateProblem,
    theta_star,
    psi: Callable,
    psi_inv: Callable,
    dpsi: Callable,
    transformed_domain: ConvexDomain | None = None,
) -> tuple[RatePair, RatePair]:
    """Rate pairs of a problem and of its pullback through a smooth change of variables.

    Both pairs are computed by default finite differences.  At interior fixed points
    they agree; at boundary fixed points they need not.
    """
    star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    frame = curvature_at(problem, star, prefer_analytic=False)
    rates_original = theoretical_rates(frame)

    def t_eval(theta, u):
        return problem.eval_q(np.atleast_1d(psi(theta)), np.atleast_1d(psi(u)))

    def t_grad2(theta, u):
        jac = np.atleast_2d(np.asarray(dpsi(u), dtype=float))
        inner = np.atleast_1d(problem.grad2(np.atleast_1d(psi(theta)), np.atleast_1d(psi(u))))
        return jac.T @ inner

    pulled = SurrogateProblem(
        q=problem.q,
        domain=transformed_domain if transformed_domain is not None else problem.domain,
        eval_q=t_eval,
        grad2=t_grad2,
        label=problem.label + "|reparam",
    )
    star_pulled = np.atleast_1d(np.asarray(psi_inv(star), dtype=float))
    frame_pulled = curvature_at(pulled, star_pulled, prefer_analytic=False)
    rates_reparam = theoretical_rates(frame_pulled)
    return rates_original, rates_reparam
