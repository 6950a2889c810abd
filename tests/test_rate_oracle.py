"""Oracles for the spectra and rate pairs of the bundled configs.

Each config's reduced pencil (A~, B~) at its theta* is whitened and diagonalised
again in mpmath at 50 digits, so the reference shares no rounding and no LAPACK
call with `linalg.whitened_eigenvalues`.  The stored spectrum is also checked
against LAPACK's general eigensolver on A~^{-1} B~.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from surro import linalg
from surro.config import CONFIG_DIR, assemble
from surro.rates import curvature_at
from surro.runner import analyze

ALGORITHM_CONFIGS = sorted(p for p in CONFIG_DIR.glob("*.json") if not p.name.startswith("sweep_"))
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
def test_the_stored_spectrum_is_the_pencil_spectrum(path):
    """The frame's spectrum against the eigenvalues of A~^{-1} B~ by LAPACK's general
    eigensolver, which neither whitens nor symmetrizes; its rate pair against
    generalized_rate_pair on the frame's pencil, bit for bit."""
    asm = assemble(json.loads(path.read_text()))
    frame = curvature_at(asm.problem, asm.theta_star)
    reference = np.linalg.eigvals(np.linalg.solve(frame.a_tilde, frame.b_tilde))
    scale = np.abs(reference).max()
    assert np.abs(reference.imag).max() <= 1e-12 * scale
    assert np.abs(frame.spectrum - np.sort(reference.real)).max() <= 1e-12 * scale
    assert frame.rates == linalg.generalized_rate_pair(frame.a_tilde, frame.b_tilde)


@pytest.mark.parametrize("path", ALGORITHM_CONFIGS, ids=lambda path: path.stem)
def test_rate_pair_matches_the_50_digit_reference(path):
    frame, rho_sup, errors = _errors(path)
    assert max(errors) <= ULPS, errors
    assert frame.h4_pass is bool(rho_sup < 1)


def test_the_reference_catches_a_swapped_rate_pair(monkeypatch):
    pair = linalg.spectrum_rate_pair
    monkeypatch.setattr(linalg, "spectrum_rate_pair",
                        lambda lam: linalg.RatePair(*reversed(pair(lam))))
    caught = [path.stem for path in ALGORITHM_CONFIGS if max(_errors(path)[2]) > ULPS]
    # the configs whose rho_inf and rho_sup differ
    assert caught == ["entropy_simplex_md", "gd_exact_rate", "mirror_prox_ball"]


def test_the_reference_catches_a_scaled_inv_sqrt(monkeypatch):
    """(1 + 1e-6) A~^{-1/2} scales the rate pair by (1 + 1e-6)^2, which the ULPS bound
    flags wherever rho_sup is not 0.  A wrong sign is no plant: with J = diag(+-1),
    V J Lambda^{-1/2} V' still whitens A~, and B~ whitened by it is an orthogonal
    similarity of B~ whitened by A~^{-1/2}, so every rate pair is unchanged."""
    root = linalg.inv_sqrt
    monkeypatch.setattr(linalg, "inv_sqrt", lambda s: (1.0 + 1e-6) * root(s))
    caught = [path.stem for path in ALGORITHM_CONFIGS if max(_errors(path)[2]) > ULPS]
    # newton_quartic's pair is (0, 1.4e-16): a relative change of 2e-6 is below rounding
    assert caught == [path.stem for path in ALGORITHM_CONFIGS if path.stem != "newton_quartic"]

    def flipped(s):
        lam, vec = linalg.eigh(s)
        return (vec * np.where(np.arange(lam.shape[-1]) == 0, -1.0, 1.0) / np.sqrt(lam)) @ vec.T

    monkeypatch.setattr(linalg, "inv_sqrt", flipped)
    assert all(max(_errors(path)[2]) <= ULPS for path in ALGORITHM_CONFIGS)


@pytest.mark.parametrize("theta_star", ["given", "auto"])
def test_alpha_em_quarter_rate_pair_is_one_third(theta_star):
    """alpha = 1/4 maps the EM rate 1/2 to 1/3 (A~ = 1, B~ = 1/3), and both of
    alpha-EM's blocks are analytic, so the pair is 1/3 to rounding."""
    cfg = json.loads((CONFIG_DIR / "alpha_em_quarter.json").read_text())
    asm = assemble(cfg if theta_star == "given" else dict(cfg, theta_star="auto"))
    run = analyze(asm.problem, asm.theta0, asm.theta_star, asm.stop)
    assert max(abs(rho - 1 / 3) for rho in run.frame.rates) <= 2 * math.ulp(1 / 3)
