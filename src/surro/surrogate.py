"""The iteration engine: minimize a bivariate surrogate in its second slot.

A `SurrogateProblem` packages the surrogate Q(theta, theta'), its partial
derivatives in the second argument, the feasible set and optional extras
(closed-form step, Lyapunov diagnostic).  `iterate` repeatedly applies the
inner minimizer and keeps the iterates and the reason it stopped.  Every
other per-step series (residuals, surrogate values, Lyapunov values) is a
function of consecutive iterates and is derived where it is read.

A surrogate defined only on an open set, such as a mirror map's domain, is
+inf outside it (the extended-value convention of convex analysis).  The
numeric inner solve refuses trial points of infinite value, so it keeps the
iterates inside that set without moving any point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .domains import ConvexDomain, as_vector
from .errors import SurroError
from .linalg import all_finite, finite_norms, max_abs, vector_norm

INNER_CAP = 500
INNER_TOL = 1e-12
ARMIJO_C = 1e-4
STALL_RESOLUTION = 1e-8  # residuals at or below this, relative to 1 + max|theta|, may stall
STALL_WINDOW = 20  # steps without a new best residual that make a stall


class SolveFailure(SurroError):
    """Generic smooth-minimization failure (iteration cap with large residual)."""


class InnerSolveFailed(SolveFailure):
    """A failed inner minimization; the message names the theta it started from."""


class StopReason(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    STALLED = "stalled"


@dataclass(frozen=True)
class StopRule:
    """Stop at max_iters steps, at a residual <= residual_tol, or after
    STALL_WINDOW steps without a new best residual once the best residual is
    at floating-point resolution (STALL_RESOLUTION relative to 1 + max|theta|).
    """

    max_iters: int = 10_000
    residual_tol: float = 1e-13

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive")


@dataclass(frozen=True)
class SurrogateProblem:
    """Bivariate surrogate with derivative access in the second argument.

    eval_q(theta, theta') is the surrogate value, grad2 its gradient in
    theta'.  hess22/hess12 are the (optional) analytic second derivatives
    d2Q/dtheta'^2 and d2Q/(dtheta dtheta'); when absent, consumers fall back
    to finite differences of grad2.  closed_form_step, when given, is the
    problem's own minimization map theta -> argmin Q(theta, .), which may itself
    solve numerically (a mirror map's step does); inner_minimize then uses it in
    place of its generic solve.  The dimension q is the domain's.
    """

    domain: ConvexDomain
    eval_q: Callable[[np.ndarray, np.ndarray], float]
    grad2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess22: Optional[Callable] = None
    hess12: Optional[Callable] = None
    closed_form_step: Optional[Callable] = None
    lyapunov: Optional[Callable] = None
    label: str = ""

    @property
    def q(self) -> int:
        return self.domain.q

    def check_feasible(self, x) -> np.ndarray:
        """x as a length-q vector in the feasible set; raises SurroError otherwise.

        `domain.contains` is the one membership test and rejects every
        non-finite point; finiteness is looked at only to word the message.
        """
        v = as_vector(x, self.q)
        if not self.domain.contains(v):
            if not np.isfinite(v).all():
                raise SurroError("point has non-finite coordinates")
            raise SurroError(f"point {v} is outside the feasible set")
        return v


@dataclass(eq=False)
class Trace:
    """The iterates theta_0, theta_1, ... of a run and the reason it stopped."""

    iterates: list[np.ndarray]
    stop_reason: StopReason

    def __len__(self):
        return len(self.iterates)

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    def errors(self, theta_star) -> np.ndarray:
        ref = np.asarray(theta_star, dtype=float)
        return finite_norms([t - ref for t in self.iterates], "an iterate's offset from theta*")

    def residuals(self) -> list[float]:
        """|theta_{n+1} - theta_n| for every step."""
        pts = self.iterates
        return finite_norms([nxt - cur for cur, nxt in zip(pts, pts[1:])], "a step").tolist()

    def q_values(self, problem: SurrogateProblem) -> np.ndarray:
        """Q(theta_n, theta_{n+1}) for every step, under iterate's floating-point guard."""
        pts = self.iterates
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return np.array([float(problem.eval_q(cur, nxt)) for cur, nxt in zip(pts, pts[1:])])
        except ArithmeticError as exc:  # numpy's FloatingPointError, or a Python float's overflow
            raise SurroError(f"a surrogate value left the floating-point range: {exc}") from exc


def minimize_smooth(domain, fun, grad, hess, x0):
    """Projected descent for a smooth convex function over a convex set.

    Tries a damped Newton step when a Hessian is available and its direction
    descends (g'd < 0), and falls back to projected gradient with
    Barzilai-Borwein steps.  A trial point is accepted for one of two reasons:
    Armijo decrease of the value, or a value within double-precision
    resolution of the current one (fn <= fx + 1e-12 (1 + |fx|)) together with
    a smaller projected-gradient residual.  Termination is on that residual,
    at INNER_TOL relative to 1 + max|x|, within INNER_CAP iterations.  grad is
    called at every iterate, and at a trial point only when its value is within
    resolution.

    fun returns a real number, or +inf off an open set it is defined on: a
    projected start of infinite value raises SolveFailure, and a trial point of
    infinite value is refused by halving the step, so iterates never leave that
    set and grad is called only at points of finite value.
    grad returns a float vector shaped as x.
    """

    def residual_at(point, gradient):
        return vector_norm(point - domain.project(point - gradient))

    def backtrack(x, fx, g, res, direction, halvings):
        """(point, value) of the first accepted step, or None."""
        t = 1.0
        for _ in range(halvings):
            xn = domain.project(x + t * direction)
            if all_finite(xn) and xn.tolist() != x.tolist():
                fn = fun(xn)
                # value comparison is resolution-limited near the minimum; there,
                # and only there, require genuine stationarity progress instead
                if math.isfinite(fn) and (
                    fn <= fx + ARMIJO_C * float(g @ (xn - x))
                    or (fn <= fx + 1e-12 * (1.0 + abs(fx))
                        and residual_at(xn, grad(xn)) <= res * (1.0 - 1e-6))
                ):
                    return xn, fn
            t *= 0.5
        return None

    x = domain.project(np.asarray(x0, dtype=float))
    fx = fun(x)
    if not math.isfinite(fx):
        raise SolveFailure(f"start {x.tolist()} has value {fx}")
    tangent = domain.direction_basis()  # Newton steps respect the affine hull
    prev_x = None
    prev_g = None
    for _ in range(INNER_CAP):
        g = grad(x)
        residual = residual_at(x, g)
        scale = 1.0 + max_abs(x)
        if residual <= INNER_TOL * scale:
            return x

        candidate = None
        if hess is not None:
            try:
                reduced = tangent.T @ hess(x) @ tangent
                direction = tangent @ np.linalg.solve(reduced, -(tangent.T @ g))
            except np.linalg.LinAlgError:
                direction = None
            if direction is not None and all_finite(direction) and float(g @ direction) < 0:
                candidate = backtrack(x, fx, g, residual, direction, halvings=30)

        if candidate is None:
            if prev_x is not None:
                s = x - prev_x
                y = g - prev_g
                sy = float(s @ y)
                t = float(s @ s) / sy if sy > 0 else 1.0 / (1.0 + vector_norm(g))
                t = min(max(t, 1e-12), 1e12)
            else:
                t = 1.0 / (1.0 + vector_norm(g))
            candidate = backtrack(x, fx, g, residual, -t * g, halvings=60)

        prev_x, prev_g = x, g
        if candidate is None:
            # both line searches stagnated; accept only within noise of the target
            if residual <= 100.0 * INNER_TOL * scale:
                return x
            raise SolveFailure(f"no descent direction found (residual {residual:.3e})")
        x, fx = candidate

    raise SolveFailure(f"iteration cap {INNER_CAP} reached (residual {residual:.3e})")


def inner_minimize(problem: SurrogateProblem, theta) -> np.ndarray:
    """One application of the minimization map: argmin of Q(theta, .) over the domain.

    The problem's closed_form_step is used when present; otherwise a projected
    Newton/gradient solve on theta' -> Q(theta, theta').  A SolveFailure from
    either is raised as InnerSolveFailed naming theta.
    """
    th = problem.check_feasible(theta)
    try:
        if problem.closed_form_step is not None:
            return as_vector(problem.closed_form_step(th), problem.q)
        return minimize_smooth(
            domain=problem.domain,
            fun=lambda x: problem.eval_q(th, x),
            grad=lambda x: as_vector(problem.grad2(th, x), problem.q),
            hess=(lambda x: problem.hess22(th, x)) if problem.hess22 is not None else None,
            x0=th,
        )
    except InnerSolveFailed:
        raise  # a nested solve (mirror prox's half step) has named its own theta
    except SolveFailure as exc:
        raise InnerSolveFailed(f"inner minimization failed at theta={th}: {exc}") from exc


def iterate(problem: SurrogateProblem, theta0, stop: StopRule | None = None) -> Trace:
    """Run theta_{n+1} = argmin Q(theta_n, .) until the stop rule fires.

    Each step is one inner minimization, its residual and the stop rule; the
    trace keeps only the iterates and the stop reason.  A start that is
    already an exact fixed point yields a single-point converged trace.
    Floating-point overflow, invalid or divide errors in a step raise SurroError.
    """
    stop = stop or StopRule()
    iterates = [problem.check_feasible(theta0).copy()]
    reason = StopReason.MAX_ITERS
    best_residual = np.inf
    stalled_steps = 0
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for n in range(stop.max_iters):
                current = iterates[-1]
                nxt = inner_minimize(problem, current)
                residual = vector_norm(nxt - current)

                if residual <= stop.residual_tol and np.array_equal(nxt, current):
                    # exact fixed point: do not append a duplicate iterate
                    reason = StopReason.CONVERGED
                    break
                iterates.append(nxt)

                if residual <= stop.residual_tol:
                    reason = StopReason.CONVERGED
                    break
                if residual < best_residual:
                    best_residual = residual
                    stalled_steps = 0
                elif best_residual <= STALL_RESOLUTION * (1.0 + max_abs(nxt)):
                    # a pre-asymptotic rise of the residual never counts as a stall
                    stalled_steps += 1
                    if stalled_steps >= STALL_WINDOW:
                        reason = StopReason.STALLED
                        break
    except ArithmeticError as exc:  # numpy's FloatingPointError, or a Python float's overflow
        raise SurroError(f"step {n} left the floating-point range: {exc}") from exc

    return Trace(iterates=iterates, stop_reason=reason)

