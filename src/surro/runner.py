"""The analysis pipeline (`analyze`) and the writers of every report file:
trace.csv, rates.json (/ plot.svg), sweep.csv, sweep_summary.csv, suite.json."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import report
from .config import assemble
from .linalg import LinalgError
from .rates import (
    REFERENCE_TOL, CurvatureFrame, RateReport, RatesError, accelerate, curvature_at, verdicts
)
from .surrogate import Trace, iterate


@dataclass
class Analysis:
    """A trace, the fixed point it is analysed at, the curvature there and the verdicts."""

    trace: Trace
    theta_star: np.ndarray
    frame: CurvatureFrame
    report: RateReport

    @property
    def passed(self) -> bool:
        return self.report.passed


@dataclass
class ReportBundle(Analysis):
    name: str
    trace_csv_path: Path
    rates_json_path: Path
    plot_svg_path: Path | None


def locate_fixed_point(problem, trace: Trace) -> np.ndarray:
    """Refine the trace's endpoint by one extrapolation step.

    Rate windows need the fixed point to more digits than the stopping
    tolerance gives; inverting the local linearization on the last increment
    supplies them whenever the iteration map is (locally) affine.
    """
    if len(trace) < 2:
        return trace.final.copy()
    prev, last = trace.iterates[-2], trace.iterates[-1]
    try:
        frame = curvature_at(problem, prev)
        refined = accelerate(prev, last, frame)
    except (RatesError, LinalgError, np.linalg.LinAlgError):
        return last.copy()
    jump = float(np.linalg.norm(refined - last))
    step = float(np.linalg.norm(last - prev))
    if jump > 10.0 * step + 1e-9 or not problem.domain.contains(refined, tol=REFERENCE_TOL):
        return last.copy()  # too far out to trust, or infeasible (a non-finite point included)
    return refined


def _trace_csv(trace: Trace, theta_star, q_gaps) -> tuple[list[str], list[list[str]]]:
    q = trace.iterates[0].shape[0]
    header = ["n"] + [f"theta_{i}" for i in range(q)] + ["err_l2", "q_gap", "residual"]
    errors = trace.errors(theta_star)
    steps = [[report.fmt(g), report.fmt(r)] for g, r in zip(q_gaps, trace.residuals())]
    rows = []
    for n, point in enumerate(trace.iterates):
        row = [str(n)] + [report.fmt(c) for c in point] + [report.fmt(errors[n])]
        rows.append(row + (steps[n] if n < len(steps) else ["", ""]))
    return header, rows


def rates_payload(name: str, algorithm: str, assembled_label: str, theta_star, frame, rep) -> dict:
    return {
        "name": name,
        "algorithm": algorithm,
        "label": assembled_label,
        "theta_star": np.asarray(theta_star),
        "theory": {"rho_inf": rep.theory.rho_inf, "rho_sup": rep.theory.rho_sup},
        "empirical": {
            "slope": rep.empirical_slope,
            "successive_ratio": rep.successive_ratio,
            "rate": rep.empirical_rate,
            "q_gap_slope": rep.q_gap_slope,
            "q_gap_rate": rep.q_gap_rate,
            "superlinear": rep.superlinear,
            "span_warning": rep.span_warning,
        },
        "verdicts": dict(rep.verdicts),
        "tol_rate": rep.tol_rate,
        "curvature": {
            "a_star": frame.a_star,
            "b_star": frame.b_star,
            "a_tilde": frame.a_tilde,
            "b_tilde": frame.b_tilde,
            "basis": frame.basis,
            "asymmetry_diag": frame.asymmetry_diag,
            "h4_pass": frame.h4_pass,
        },
    }


def analyze(problem, theta0, theta_star=None, stop=None) -> Analysis:
    """Iterate from theta0 and check the measured decay against the rate pair at theta*.

    With theta_star None the fixed point is located from the trace.  Raises
    H4Violated when the reduced A~ at theta* is not positive-definite.
    """
    trace = iterate(problem, theta0, stop)
    if theta_star is None:
        theta_star = locate_fixed_point(problem, trace)
    frame = curvature_at(problem, theta_star)
    rep = verdicts(trace, theta_star, frame, problem)
    return Analysis(trace, np.asarray(theta_star, dtype=float), frame, rep)


def run_experiment(cfg: dict, out_dir, plot: bool = False) -> ReportBundle:
    """Assemble, analyze and write trace.csv / rates.json (/ plot.svg)."""
    asm = assemble(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    run = analyze(asm.problem, asm.theta0, asm.theta_star, asm.stop)
    trace, theta_star, rep = run.trace, run.theta_star, run.report

    header, rows = _trace_csv(trace, theta_star, rep.q_gaps)
    trace_path = report.write_csv(out / "trace.csv", header, rows)
    payload = rates_payload(asm.name, asm.algorithm, asm.problem.label, theta_star, run.frame, rep)
    payload["stop_reason"] = trace.stop_reason.value
    payload["n_iterates"] = len(trace)
    rates_path = report.write_text(out / "rates.json", report.dumps(payload))

    plot_path = None
    if plot:
        svg = report.svg_log_error_plot(
            trace.errors(theta_star), rep.theory.rho_sup, title=asm.name
        )
        plot_path = report.write_text(out / "plot.svg", svg)

    return ReportBundle(**vars(run), name=asm.name, trace_csv_path=trace_path,
                        rates_json_path=rates_path, plot_svg_path=plot_path)


def write_sweep(table, out_dir) -> tuple[Path, Path]:
    """Write a SweepTable's rows to sweep.csv and its per-k summary to sweep_summary.csv."""
    out = Path(out_dir)
    rows = [
        [str(r.k), str(r.seed), report.fmt(r.rho_samp), report.fmt(r.abs_dev),
         report.fmt(r.theta_hat)]
        for r in table.rows
    ]
    sweep_path = report.write_csv(
        out / "sweep.csv", ["k", "seed", "rho_samp", "abs_dev", "theta_hat"], rows
    )
    summary_rows = [
        [str(s.k), report.fmt(s.median_abs_dev), report.fmt(s.q90_abs_dev)]
        for s in table.summary
    ]
    summary_path = report.write_csv(
        out / "sweep_summary.csv", ["k", "median_abs_dev", "q90_abs_dev"], summary_rows
    )
    return sweep_path, summary_path


def write_suite(results, out_dir) -> Path:
    """Write the suite's ExperimentResults to suite.json."""
    payload = [{"name": r.name, "description": r.description, "passed": r.passed,
                "measured": r.measured} for r in results]
    return report.write_text(Path(out_dir) / "suite.json", report.dumps(payload))
