"""Curvature extraction, theoretical rate pairs and empirical decay estimation.

The asymptotic behavior of a surrogate-minimization scheme near a fixed point
theta* is governed by two matrices: the second derivative of the surrogate in
its minimization slot (A*) and the negated mixed derivative (-d12 Q = B*),
both reduced to the direction space of the feasible set.  The extreme absolute
generalized eigenvalues of the reduced pencil bound the geometric decay of the
iterates from above and below, and coincide with it when the upper rate squared
does not exceed the lower rate; mapped in closed form, the same spectrum gives
the rates of the extragradient and alpha-EM variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import linalg
from .domains import ConvexDomain
from .errors import SurroError
from .linalg import NotPositiveDefinite, RatePair, vector_norm
from .surrogate import StopReason, SurrogateProblem, Trace

DEFAULT_BURN_IN = 0.3
MIN_WINDOW_POINTS = 10
DEFAULT_RATE_TOL = 0.02
REFERENCE_TOL = 1e-9  # membership slack of a fixed point theta* given for analysis
FD_STEP = 1e-4  # central-difference step relative to 1 + |theta*|, Richardson-refined


class RatesError(SurroError):
    pass


@dataclass(frozen=True, eq=False)
class CurvatureFrame:
    """Curvature pair at a point, with its direction-space reduction.

    a_star/b_star live in the ambient space; a_tilde/b_tilde are the
    congruence reductions through the orthonormal basis columns.  When the
    derivatives were only probed along the direction space, the ambient
    matrices are the lifted reductions.  `spectrum` holds the ascending
    eigenvalues of A~^{-1/2} B~ A~^{-1/2}, or None when a_tilde is not
    positive-definite; every predicted rate is read off it.
    """

    a_star: np.ndarray
    b_star: np.ndarray
    basis: np.ndarray
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    asymmetry_diag: float
    spectrum: Optional[np.ndarray]

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    @property
    def jacobian(self) -> np.ndarray:
        """A~^{-1} B~, the iteration map's Jacobian in the direction space;
        np.linalg.LinAlgError when A~ is singular."""
        return np.linalg.solve(self.a_tilde, self.b_tilde)

    @property
    def rates(self) -> RatePair:
        """linalg.spectrum_rate_pair of the spectrum; RatesError when there is none."""
        return linalg.spectrum_rate_pair(_spectrum_of(self))

    @property
    def h4_pass(self) -> bool:
        """H4 (u'A~u > |u'B~u| for every u != 0): A~ is PD and rho_sup < 1."""
        return self.spectrum is not None and self.rates.rho_sup < 1.0


def _spectrum_of(frame: CurvatureFrame) -> np.ndarray:
    """The frame's spectrum; RatesError when A~ is not positive-definite."""
    if frame.spectrum is None:
        raise RatesError("reduced curvature matrix A~ is not positive-definite")
    return frame.spectrum


def _directional(gfun: Callable, base: np.ndarray, direction: np.ndarray, h: float):
    """Richardson-refined central difference of gfun along direction at base."""
    def probe(hh):
        try:
            plus = np.asarray(gfun(base + hh * direction), dtype=float)
            minus = np.asarray(gfun(base - hh * direction), dtype=float)
        except Exception as exc:  # noqa: BLE001 - surfaced with context
            raise RatesError(
                f"surrogate evaluation failed at offset {hh:g} along {direction}: {exc}"
            ) from exc
        out = (plus - minus) / (2.0 * hh)
        if not np.all(np.isfinite(out)):
            raise RatesError(f"non-finite derivative probe at offset {hh:g}")
        return out

    coarse = probe(h)
    fine = probe(0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def curvature_at(problem: SurrogateProblem, theta_star) -> CurvatureFrame:
    """Curvature frame of the surrogate at a (near-)fixed point.

    theta* must lie in the domain within REFERENCE_TOL.  Uses the problem's
    analytic second derivatives when present, otherwise Richardson-refined
    central differences of grad2 (step FD_STEP (1 + |theta*|)) along
    direction-space columns, so constrained problems are only ever probed
    inside their affine hull; the finite-difference frame of a problem with
    analytic blocks is that of dataclasses.replace(problem, hess22=None,
    hess12=None).  The mixed block is symmetrized and its pre-symmetrization
    asymmetry retained.

    The spectrum of the reduced pencil is computed once here and carried by
    the frame; it is None when A~ is not positive-definite, which is also when
    frame.rates raises RatesError and h4_pass is False.
    """
    star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    if not problem.domain.contains(star, tol=REFERENCE_TOL):
        raise RatesError(f"reference point {star} is outside the domain")
    p = problem.domain.direction_basis()  # orthonormal q x d columns spanning feasible differences

    def block(analytic, probed, sign):
        """(ambient, reduced, asymmetry) of sign x one second-derivative block."""
        if analytic is not None:
            raw = sign * np.asarray(analytic(star, star), dtype=float)
            ambient = linalg.symmetrize(raw)
            return ambient, linalg.symmetrize(p.T @ ambient @ p), linalg.asymmetry(raw)
        h = FD_STEP * _scale(star)
        cols = [_directional(probed, star, p[:, j], h) for j in range(p.shape[1])]
        raw = sign * (p.T @ np.column_stack(cols))
        reduced = linalg.symmetrize(raw)
        return p @ reduced @ p.T, reduced, linalg.asymmetry(raw)

    a_star, a_tilde, _ = block(problem.hess22, lambda u: problem.grad2(star, u), 1.0)
    b_star, b_tilde, asym = block(problem.hess12, lambda t: problem.grad2(t, star), -1.0)

    try:
        spectrum = linalg.whitened_eigenvalues(a_tilde, b_tilde)
    except NotPositiveDefinite:
        spectrum = None

    return CurvatureFrame(
        a_star=a_star,
        b_star=b_star,
        basis=p,
        a_tilde=a_tilde,
        b_tilde=b_tilde,
        asymmetry_diag=float(asym),
        spectrum=spectrum,
    )


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
    above = e > floor
    idx = start + np.flatnonzero(above[start:])  # the window
    if idx.size >= MIN_WINDOW_POINTS:
        slope = float(np.polyfit(idx, np.log(e[idx]), 1)[0])
        pairs = idx[:-1][above[idx[:-1] + 1]]  # both ends in the window
        ratio = float(np.median(e[pairs + 1] / e[pairs])) if pairs.size else None
        return DecayEstimate(
            slope=slope,
            successive_ratio=ratio,
            rate=float(np.exp(slope)),
            n_usable=idx.size,
            superlinear=False,
            window_empty=False,
            window=(int(idx[0]), int(idx[-1])),
        )

    steps = np.flatnonzero(above[:-1])  # steps out of a point above the floor
    if not steps.size:
        return DecayEstimate(None, None, 0.0, idx.size, False, True, (0, 0))

    first, last = (e[steps[[0, -1]] + 1] / e[steps[[0, -1]]]).tolist()
    collapsed = e[-1] <= 10.0 * floor
    shrinking = last <= 0.5 * first or steps.size == 1
    return DecayEstimate(
        slope=float(np.log(last)) if last > 0 else None,
        successive_ratio=last,
        rate=last,
        n_usable=idx.size,
        superlinear=bool(collapsed and shrinking),
        window_empty=not idx.size,
        window=(start, n - 1),
    )


def _scale(x) -> float:
    """1 + |x|, the scale of the finite-difference step and of the numerical floor."""
    norm = linalg.finite_norms([np.atleast_1d(x)], "theta* or of Q(theta*, theta*)")[0]
    return 1.0 + float(norm)


def default_floor(x) -> float:
    """The numerical floor 1e-12 (1 + |x|) of distances from x, or of gaps from a value x."""
    return 1e-12 * _scale(x)


@dataclass(frozen=True, eq=False)
class RateReport:
    """One analysed run: the trace, its fixed point, the curvature frame there,
    the decay measured on the trace and one verdict per asymptotic claim.

    decay estimates |theta_n - theta*| and q_gap the signed surrogate gaps
    Q(theta_n, theta_{n+1}) - Q(theta*, theta*) held in q_gaps, one per step;
    q_gap is None and q_gaps empty on a trace without steps.  Verdict keys:
    "upper" (measured decay bounded by the sup rate of frame.rates), "lower"
    (bounded below by the inf rate, interior limits only), "exact" (the two
    coincide when sup^2 <= inf) and "q_gap" (surrogate values converge at
    least as fast as the iterates).  Reports, frames and traces compare by identity.
    """

    trace: Trace
    theta_star: np.ndarray
    frame: CurvatureFrame
    decay: DecayEstimate
    q_gap: Optional[DecayEstimate]
    span_warning: bool
    verdicts: dict[str, str]
    q_gaps: tuple[float, ...]

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
    """Check the measured decay of a trace against the rate pair of its frame.

    Every rate comparison allows DEFAULT_RATE_TOL; the surrogate gap is
    measured against Q at the fixed point, and is inapplicable on a trace
    without steps.  Every verdict fails on a trace that did not converge, and
    on one whose limit is not theta*: for rho_sup < 1, the a posteriori bound
    of a contraction puts the limit within r_N / (1 - rho_sup) of the last
    iterate (r_N the last residual), and a final error above ten times that
    plus the numerical floor fails.  Without that bound (rho_sup >= 1), or on a
    trace without steps (its own limit), a final error above 10 floors fails.
    Raises RatesError when A~ is not positive-definite.
    """
    star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    theory = frame.rates
    errors = trace.errors(star)
    floor = default_floor(star)
    est = decay_estimate(errors, floor)
    rate_emp = est.rate
    interior = bool(problem.domain.is_interior(star))

    out: dict[str, str] = {}
    out["upper"] = "pass" if rate_emp <= theory.rho_sup + DEFAULT_RATE_TOL else "fail"

    if not interior or est.window_empty:
        out["lower"] = "inapplicable"
    else:
        out["lower"] = "pass" if rate_emp >= theory.rho_inf - DEFAULT_RATE_TOL else "fail"

    sup = theory.rho_sup
    exact_applicable = sup * sup <= theory.rho_inf + 1e-12 and interior
    if not exact_applicable or est.window_empty:
        out["exact"] = "inapplicable"
    else:
        out["exact"] = "pass" if abs(rate_emp - theory.rho_sup) <= DEFAULT_RATE_TOL else "fail"

    if len(trace) > 1:
        q_star = float(problem.eval_q(star, star))
        q_gaps = tuple((trace.q_values(problem) - q_star).tolist())
        est_q = decay_estimate(np.abs(q_gaps), default_floor(q_star))
        out["q_gap"] = "pass" if est_q.rate <= theory.rho_sup + DEFAULT_RATE_TOL else "fail"
        r_last = vector_norm(trace.final - trace.iterates[-2])
        bound = r_last / (1.0 - sup) if sup < 1.0 else 0.0
    else:  # a trace without a step is its own limit, whatever sup is
        est_q, q_gaps = None, ()
        out["q_gap"] = "inapplicable"
        bound = 0.0
    if trace.stop_reason is not StopReason.CONVERGED or errors[-1] > 10.0 * (bound + floor):
        out = dict.fromkeys(out, "fail")

    return RateReport(
        trace=trace,
        theta_star=star,
        frame=frame,
        decay=est,
        q_gap=est_q,
        span_warning=_span_warning(trace, star, est, frame.d),
        verdicts=out,
        q_gaps=q_gaps,
    )


def mirror_prox_spectrum_map(md_frame: CurvatureFrame) -> RatePair:
    """Extragradient rate pair: the descent spectrum pushed through x -> x^2 - x + 1.

    The extragradient scheme's reduced pencil equals that polynomial in the
    descent pencil, so its rate pair is the spectrum_rate_pair of the mapped
    spectrum.  Every mapped value is at least 3/4, so the singular snap of
    rho_inf never fires; values map into [3/4, 1) exactly when the descent
    spectrum lies in (0, 1), and the scheme contracts when rho_sup < 1.
    """
    spectrum = _spectrum_of(md_frame)
    return linalg.spectrum_rate_pair(spectrum**2 - spectrum + 1.0)


def alpha_transform(em_frame: CurvatureFrame, alpha: float) -> float:
    """Predicted sup rate of the alpha variant of the EM scheme at em_frame.

    The alpha spectrum is the affine image x -> (x - alpha)/(1 - alpha) of
    the EM spectrum, signs kept; the sup is the rho_sup of its spectrum_rate_pair.
    """
    if alpha == 1.0:
        raise RatesError("alpha = 1 is excluded")
    return linalg.spectrum_rate_pair((_spectrum_of(em_frame) - alpha) / (1.0 - alpha)).rho_sup


def optimal_alpha(em_frame: CurvatureFrame) -> tuple[float, float]:
    """The midpoint of the EM spectrum [lo, hi], the index with the least sup rate
    when hi < 1, and that rate."""
    lo, hi = _spectrum_of(em_frame)[[0, -1]].tolist()
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
        g = np.eye(frame.d) - frame.jacobian
        if np.linalg.cond(g) > 1e12:
            raise RatesError("I - A~^{-1} B~ is numerically singular")
        shift = np.linalg.solve(g, p.T @ (tn1 - tn))
    except np.linalg.LinAlgError as exc:
        raise RatesError(str(exc)) from exc
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

    Both pairs are computed by finite differences.  At interior fixed points
    they agree; at boundary fixed points they need not.
    """
    star = np.atleast_1d(np.asarray(theta_star, dtype=float))
    rates_original = curvature_at(replace(problem, hess22=None, hess12=None), star).rates

    def t_eval(theta, u):
        return problem.eval_q(np.atleast_1d(psi(theta)), np.atleast_1d(psi(u)))

    def t_grad2(theta, u):
        jac = np.atleast_2d(np.asarray(dpsi(u), dtype=float))
        inner = np.atleast_1d(problem.grad2(np.atleast_1d(psi(theta)), np.atleast_1d(psi(u))))
        return jac.T @ inner

    pulled = SurrogateProblem(
        domain=transformed_domain if transformed_domain is not None else problem.domain,
        eval_q=t_eval,
        grad2=t_grad2,
        label=problem.label + "|reparam",
    )
    star_pulled = np.atleast_1d(np.asarray(psi_inv(star), dtype=float))
    return rates_original, curvature_at(pulled, star_pulled).rates
