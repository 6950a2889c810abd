"""A 50-digit oracle for the rate pairs of the bundled configs.

Each config's reduced pencil (A~, B~) at its theta* is whitened and diagonalised
again in mpmath at 50 digits, so the reference shares no rounding and no LAPACK
call with `linalg.generalized_rate_pair`.
"""

import json
from pathlib import Path

import mpmath
import numpy as np
import pytest

from surro import linalg
from surro.config import assemble
from surro.rates import curvature_at

CONFIGS = Path(__file__).resolve().parents[1] / "src" / "surro" / "configs"
ALGORITHM_CONFIGS = sorted(p for p in CONFIGS.glob("*.json") if not p.name.startswith("sweep_"))
ULPS = 4  # bound on |float - reference|: ULPS * eps * cond(A~) * max(1, rho)


def _reference_pair(a, b):
    """(rho_inf, rho_sup, cond(A~)) at 50 digits: the extreme absolute eigenvalues of
    A~^{-1/2} B~ A~^{-1/2}, with A~^{-1/2} built from mpmath's own eigsy of A~."""
    with mpmath.workdps(50):
        lam, vec = mpmath.eigsy(mpmath.matrix(a.tolist()))
        root = vec * mpmath.diag([1 / mpmath.sqrt(x) for x in lam]) * vec.T
        mu, _ = mpmath.eigsy(root * mpmath.matrix(b.tolist()) * root)
        spread = sorted(abs(x) for x in mu)
        lo, hi = spread[0], spread[-1]
        if lo < linalg.SINGULAR_TOL * max(1, hi):  # generalized_rate_pair's 0/0 = 0 convention
            lo = mpmath.mpf(0)
        return lo, hi, max(lam) / min(lam)


def _errors(path):
    """The frame at theta*, the reference rho_sup, and the errors of (rho_inf, rho_sup)
    in units of eps * cond(A~) * max(1, rho)."""
    asm = assemble(json.loads(path.read_text()))
    frame = curvature_at(asm.problem, asm.theta_star)
    lo, hi, cond = _reference_pair(frame.a_tilde, frame.b_tilde)
    with mpmath.workdps(50):
        errors = [float(abs(mpmath.mpf(got) - ref) / (np.finfo(float).eps * cond * max(1, ref)))
                  for got, ref in zip(frame.rates, (lo, hi))]
    return frame, hi, errors


@pytest.mark.parametrize("path", ALGORITHM_CONFIGS, ids=lambda path: path.stem)
def test_rate_pair_matches_the_50_digit_reference(path):
    frame, rho_sup, errors = _errors(path)
    assert max(errors) <= ULPS, errors
    assert frame.h4_pass is bool(rho_sup < 1)


def test_the_reference_catches_a_swapped_rate_pair(monkeypatch):
    pair = linalg.generalized_rate_pair
    monkeypatch.setattr(linalg, "generalized_rate_pair",
                        lambda a, b: linalg.RatePair(*reversed(pair(a, b))))
    caught = [path.stem for path in ALGORITHM_CONFIGS if max(_errors(path)[2]) > ULPS]
    # the configs whose rho_inf and rho_sup differ
    assert caught == ["entropy_simplex_md", "gd_exact_rate", "mirror_prox_ball"]
