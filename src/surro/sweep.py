"""Sample-size sweeps: how fast do finite-sample rates settle on the limit?

For each (sample size, seed) cell the sweep draws a fresh dataset, runs the
model's sample surrogate to its own fixed point, measures the rate pair there
and tabulates the absolute deviation from the infinite-data rate.  Cells run
one after another on the calling thread; rows are sorted by (sample size, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SurroError
from .latent import draw_data
from .rates import curvature_at
from .surrogate import StopReason, iterate


@dataclass(frozen=True)
class SweepRow:
    k: int
    seed: int
    rho_samp: float
    abs_dev: float
    theta_hat: float


@dataclass(frozen=True)
class SweepSummaryRow:
    k: int
    median_abs_dev: float
    q90_abs_dev: float


@dataclass(frozen=True)
class SweepTable:
    rho_pop: float
    rows: list[SweepRow]
    summary: list[SweepSummaryRow]


def worker_count() -> int:
    """Threads a sweep runs its cells on: always 1.  The benchmark's span tracer
    (bench/spans.py) reads it to report `sweep.workers`."""
    return 1


def _run_cell(model, k: int, seed: int, rho_pop: float) -> SweepRow:
    problem = model.sample_problem(draw_data(model, k, seed))
    trace = iterate(problem, model.default_theta0())
    reason = trace.stop_reason
    if reason is not StopReason.CONVERGED:
        raise SurroError(f"sweep cell k={k}, seed={seed} stopped at {reason.value}, unconverged")
    theta_hat = trace.final
    rho = curvature_at(problem, theta_hat).rates.rho_sup
    return SweepRow(
        k=int(k),
        seed=int(seed),
        rho_samp=float(rho),
        abs_dev=float(abs(rho - rho_pop)),
        theta_hat=float(theta_hat[0]),
    )


def _integers(values, least: int, name: str) -> list[int]:
    """`values` as ints; SurroError naming `name` unless each is a Python or numpy integer
    (not a bool) >= least, the rule a sweep config's `ks` and `seeds` follow."""
    values = list(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
            raise SurroError(f"{name} must be integers >= {least}, got {v!r}")
    return [int(v) for v in values]


def sample_rate_sweep(model, ks, seeds) -> SweepTable:
    """Measure the per-sample-size spread of fixed-point rates around the limit.

    `ks` must be ascending integers >= 1 and nonempty; `seeds` integers >= 0 and
    nonempty (Python or numpy integers, not bools).  The model must
    provide sample_y / sample_problem / population_rate / default_theta0
    (both shipped latent models do).  Each cell iterates under the default
    StopRule and takes its curvature with curvature_at from the sample problem's
    analytic blocks (both shipped models give both, so no cell takes finite
    differences).  A cell whose reduced A~ is not positive-definite raises RatesError;
    one whose run does not converge (it stops at max_iters or stalled),
    SurroError naming its k, its seed and the stop reason.
    """
    ks, seeds = _integers(ks, 1, "ks"), _integers(seeds, 0, "seeds")
    if not ks:
        raise SurroError("ks must be nonempty")
    if ks != sorted(ks):
        raise SurroError("ks must be ascending")
    if not seeds:
        raise SurroError("seeds must be nonempty")
    rho_pop = float(model.population_rate())

    rows = [_run_cell(model, k, s, rho_pop) for k in ks for s in seeds]
    rows.sort(key=lambda r: (r.k, r.seed))

    summary = []
    for k in ks:
        devs = np.array([r.abs_dev for r in rows if r.k == k])
        summary.append(
            SweepSummaryRow(
                k=k,
                median_abs_dev=float(np.median(devs)),
                q90_abs_dev=float(np.quantile(devs, 0.9)),
            )
        )
    return SweepTable(rho_pop=rho_pop, rows=rows, summary=summary)
