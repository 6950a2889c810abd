"""Randomized property suites for the linear-algebra layer.

Each suite stress-tests one identity or perturbation bound behind the rate
machinery on a stream of random matrices, and reports any counterexample with
the offending inputs so it can be replayed verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .rng import CounterRNG

DIMS = (1, 8)


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def random_spd(rng: CounterRNG, d: int, cond_range=(0.3, 3.0)) -> np.ndarray:
    """SPD matrix with eigenvalues log-uniform inside cond_range."""
    g = rng.gaussian(d * d).reshape(d, d)
    q, _ = np.linalg.qr(g + np.eye(d) * 1e-3)
    lo, hi = np.log(cond_range[0]), np.log(cond_range[1])
    lam = np.exp(lo + (hi - lo) * rng.uniform(d))
    return linalg.symmetrize((q * lam) @ q.T)


def random_symmetric(rng: CounterRNG, d: int) -> np.ndarray:
    return linalg.symmetrize(rng.gaussian(d * d).reshape(d, d))


def _dim(rng: CounterRNG, dims) -> int:
    lo, hi = dims
    return lo + int(rng.uniform(1)[0] * (hi - lo + 1))


def _ratio_ascent(a: np.ndarray, b: np.ndarray, v0: np.ndarray, steps: int = 200) -> float:
    """Hill-climb |v'Bv| / v'Av from v0; derivative ascent, no eigensolver."""
    v = v0 / np.linalg.norm(v0)
    sign = 1.0 if float(v @ b @ v) >= 0 else -1.0
    value = sign * float(v @ b @ v) / float(v @ a @ v)
    for _ in range(steps):
        bv, av = b @ v, a @ v
        p, q = float(v @ bv), float(v @ av)
        grad = sign * 2.0 * (bv * q - p * av) / q**2
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-14 * (1.0 + abs(value)):
            break
        t = 1.0 / (1.0 + gnorm)
        improved = False
        for _ in range(40):
            w = v + t * grad
            w /= np.linalg.norm(w)
            cand = sign * float(w @ b @ w) / float(w @ a @ w)
            if cand > value:
                v, value, improved = w, cand, True
                break
            t *= 0.5
        if not improved:
            break
    return abs(value)


def check_rate_identity(trials: int = 1000, seed: int = 0, dims=DIMS) -> SuiteResult:
    """Four routes to the sup rate agree: two spectral radii, one norm, one searched sup.

    The direction search draws random candidates and polishes the best of each
    sign branch by derivative ascent on the generalized Rayleigh quotient
    (plain sampling cannot reach the sup to 1e-2 beyond a few dimensions).
    """
    rng = CounterRNG((seed, 1))
    out = SuiteResult("rate_identity", trials)
    for _ in range(trials):
        d = _dim(rng, dims)
        a = random_spd(rng, d)
        b = random_symmetric(rng, d)
        a_inv = np.linalg.inv(a)
        rho_ab = float(np.max(np.abs(np.linalg.eigvals(a_inv @ b))))
        rho_ba = float(np.max(np.abs(np.linalg.eigvals(b @ a_inv))))
        norm_route = linalg.generalized_rate_pair(a, b).rho_sup
        v = rng.gaussian(2000 * d).reshape(2000, d)
        quad_b = np.einsum("ij,jk,ik->i", v, b, v)
        quad_a = np.einsum("ij,jk,ik->i", v, a, v)
        ratios = np.abs(quad_b) / quad_a
        sampled = float(np.max(ratios))
        searched = sampled
        for branch in (quad_b >= 0, quad_b < 0):
            if np.any(branch):
                best = v[np.argmax(np.where(branch, ratios, -np.inf))]
                searched = max(searched, _ratio_ascent(a, b, best))
        exact_gap = max(abs(rho_ab - norm_route), abs(rho_ba - norm_route))
        ok = (
            exact_gap <= 1e-6 * (1.0 + norm_route)
            and searched <= norm_route * (1.0 + 1e-9) + 1e-12
            and norm_route - searched <= 1e-2 * (1.0 + norm_route)
        )
        if not ok:
            out.failures.append(
                {"a": a.tolist(), "b": b.tolist(), "rho_ab": rho_ab, "rho_ba": rho_ba,
                 "norm_route": norm_route, "sampled_sup": sampled, "searched_sup": searched}
            )
    return out


def check_domination(trials: int = 1000, seed: int = 0, dims=DIMS) -> SuiteResult:
    """x'Ax <= x'By forces |x|_A <= rho |y|_A with rho the weighted norm of B."""
    rng = CounterRNG((seed, 2))
    out = SuiteResult("domination", trials)
    done = 0
    attempts = 0
    while done < trials and attempts < 100 * trials:
        attempts += 1
        d = _dim(rng, dims)
        a = random_spd(rng, d)
        b = rng.gaussian(d * d).reshape(d, d)
        x = 0.3 * rng.gaussian(d)
        y = rng.gaussian(d)
        if float(x @ a @ x) > float(x @ b @ y):
            continue  # hypothesis not satisfied; draw again
        done += 1
        r = linalg.inv_sqrt(a)
        rho = linalg.spectral_norm(r @ b @ r)
        nx = float(np.sqrt(x @ a @ x))
        ny = float(np.sqrt(y @ a @ y))
        if nx > rho * ny + 1e-9:
            out.failures.append(
                {"a": a.tolist(), "b": b.tolist(), "x": x.tolist(), "y": y.tolist(),
                 "norm_x": nx, "rho_norm_y": rho * ny}
            )
    out.trials = done
    return out


def check_norm_perturbation(trials: int = 1000, seed: int = 0, dims=DIMS) -> SuiteResult:
    """Nearby SPD matrices induce norms sandwiched within a relative epsilon."""
    rng = CounterRNG((seed, 3))
    out = SuiteResult("norm_perturbation", trials)
    for _ in range(trials):
        d = _dim(rng, dims)
        s_star = random_spd(rng, d)
        min_eig = linalg.eigh(s_star).eigenvalues[0]
        for eps in (0.5, 0.1, 0.01):
            delta = eps * min_eig / 2.0
            m = random_symmetric(rng, d)
            m *= delta * 0.999 / max(linalg.spectral_norm(m), 1e-300)
            s = linalg.symmetrize(s_star + m)
            xs = rng.gaussian(100 * d).reshape(100, d)
            ns = np.sqrt(np.einsum("ij,jk,ik->i", xs, s, xs))
            nstar = np.sqrt(np.einsum("ij,jk,ik->i", xs, s_star, xs))
            good = np.all(nstar >= (1 - eps) * ns - 1e-12) and np.all(
                nstar <= (1 + eps) * ns + 1e-12
            )
            if not good:
                out.failures.append(
                    {"s_star": s_star.tolist(), "s": s.tolist(), "eps": eps, "delta": delta}
                )
    return out


def check_rate_perturbation(trials: int = 1000, seed: int = 0, dims=DIMS) -> SuiteResult:
    """The sup rate is locally Lipschitz in (A, B), with an explicit envelope.

    For |M| below half the smallest eigenvalue of A, comparing Rayleigh
    quotients term by term gives
        |rho(A+M, B+N) - rho(A, B)| <= (|N| + rho |M|) / (lambda_min(A) - |M|),
    a concrete instance of the existence statement; the suite checks it at
    three shrinking perturbation scales along shared directions.
    """
    rng = CounterRNG((seed, 4))
    out = SuiteResult("rate_perturbation", trials)
    scales = (1e-2, 1e-3, 1e-4)
    for _ in range(trials):
        d = _dim(rng, dims)
        a = random_spd(rng, d, cond_range=(0.5, 2.0))
        b = random_symmetric(rng, d)
        base = linalg.generalized_rate_pair(a, b).rho_sup
        lam_min = float(linalg.eigh(a).eigenvalues[0])
        m_dir = random_symmetric(rng, d)
        m_dir /= max(linalg.spectral_norm(m_dir), 1e-300)
        n_dir = random_symmetric(rng, d)
        n_dir /= max(linalg.spectral_norm(n_dir), 1e-300)
        for t in scales:
            pert = linalg.generalized_rate_pair(a + t * m_dir, b + t * n_dir).rho_sup
            dev = abs(pert - base)
            envelope = (t + base * t) / (lam_min - t)
            if dev > envelope + 1e-9:
                out.failures.append(
                    {"a": a.tolist(), "b": b.tolist(), "m": m_dir.tolist(),
                     "n": n_dir.tolist(), "scale": t, "deviation": dev,
                     "envelope": envelope}
                )
    return out


def check_eigh_reconstruction(trials: int = 1000, seed: int = 0, dims=DIMS) -> SuiteResult:
    """eigh output reconstructs the input and keeps eigenvectors orthonormal.

    A guard on the LAPACK path: it checks the decomposition against its own
    input rather than against a second eigensolver.
    """
    rng = CounterRNG((seed, 5))
    out = SuiteResult("eigh_reconstruction", trials)
    for _ in range(trials):
        d = _dim(rng, dims)
        s = random_symmetric(rng, d) * float(np.exp(2.0 * rng.gaussian(1)[0]))
        lam, vec = linalg.eigh(s)
        recon = (vec * lam) @ vec.T
        scale = 1.0 + float(np.max(np.abs(s)))
        ortho = float(np.max(np.abs(vec.T @ vec - np.eye(d))))
        resid = float(np.max(np.abs(s @ vec - vec * lam)))
        ok = (
            float(np.max(np.abs(recon - s))) <= 1e-9 * scale
            and ortho <= 1e-10
            and resid <= 1e-9 * (1.0 + float(np.max(np.abs(lam))))
            and bool(np.all(np.diff(lam) >= 0))
        )
        if not ok:
            out.failures.append({"s": s.tolist(), "ortho": ortho, "residual": resid})
    return out


ALL_SUITES = (
    check_rate_identity,
    check_domination,
    check_norm_perturbation,
    check_rate_perturbation,
    check_eigh_reconstruction,
)


def run_all(trials: int = 1000, seed: int = 0, dims=DIMS) -> list[SuiteResult]:
    return [suite(trials=trials, seed=seed, dims=dims) for suite in ALL_SUITES]
