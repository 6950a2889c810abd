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
ASCENT_STEPS = 200


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


def _dim(rng: CounterRNG) -> int:
    lo, hi = DIMS
    return lo + int(rng.uniform(1)[0] * (hi - lo + 1))


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise m[i] @ x[i] for a stack m (n, d, d) and rows x (n, d)."""
    return (m @ x[..., None])[..., 0]


def _rows_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, y)


def _ratio_ascent(a: np.ndarray, b: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Per row, climb |v'Bv| / v'Av from v0 within its sign branch; no eigensolver.

    a (n, d, d) SPD, b (n, d, d) symmetric, v0 (n, d); returns the n climbed values.
    Exact 2x2 Rayleigh-Ritz step, one padded batch per call: each step moves a row
    to the maximiser of sign * v'Bv / v'Av on span{v, u}, u the gradient with its v
    component removed; on that span the maximum is the larger root of the 2x2
    pencil's quadratic det(S'(sign B)S - lam S'AS) = 0. A row stops when its
    gradient vanishes, when a step does not strictly improve it, or after
    ASCENT_STEPS steps.
    """
    v = v0 / np.linalg.norm(v0, axis=1, keepdims=True)
    b = b * np.where(_rows_dot(v, _apply(b, v)) >= 0, 1.0, -1.0)[:, None, None]
    av, bv = _apply(a, v), _apply(b, v)
    p, q = _rows_dot(v, bv), _rows_dot(v, av)
    out = p / q
    rows = np.arange(len(v))
    for _ in range(ASCENT_STEPS):
        if not len(rows):
            break
        value = p / q
        grad = 2.0 * (bv * q[:, None] - p[:, None] * av) / (q**2)[:, None]
        u = grad - _rows_dot(grad, v)[:, None] * v
        unorm = np.linalg.norm(u, axis=1)
        live = (np.linalg.norm(grad, axis=1) > 1e-14 * (1.0 + np.abs(value))) & (unorm > 0)
        if not live.all():
            a, b, v, av, bv, p, q, value, rows, u, unorm = (
                x[live] for x in (a, b, v, av, bv, p, q, value, rows, u, unorm))
        u /= unorm[:, None]
        au, bu = _apply(a, u), _apply(b, u)
        a12, a22, b12, b22 = (_rows_dot(v, au), _rows_dot(u, au),
                              _rows_dot(v, bu), _rows_dot(u, bu))
        c2 = q * a22 - a12**2  # det(S'AS) > 0
        c1 = q * b22 + a22 * p - 2.0 * a12 * b12
        c0 = p * b22 - b12**2
        disc = np.sqrt(np.maximum(c1**2 - 4.0 * c2 * c0, 0.0))
        # larger root without cancellation: (c1 + disc) / 2c2, or 2c0 / (c1 - disc) for c1 < 0
        lam = np.empty_like(c1)
        pos = c1 >= 0
        lam[pos] = (c1[pos] + disc[pos]) / (2.0 * c2[pos])
        lam[~pos] = 2.0 * c0[~pos] / (c1[~pos] - disc[~pos])
        # the Ritz vector: the larger-norm row of adj(Bp - lam Ap), a null vector of it
        m11, m12, m22 = p - lam * q, b12 - lam * a12, b22 - lam * a22
        first = m22**2 >= m11**2
        w = (np.where(first, m22, -m12)[:, None] * v
             + np.where(first, -m12, m11)[:, None] * u)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        aw, bw = _apply(a, w), _apply(b, w)
        pw, qw = _rows_dot(w, bw), _rows_dot(w, aw)
        better = pw / qw > value
        v, av, bv, p, q = w, aw, bw, pw, qw
        if not better.all():
            a, b, v, av, bv, p, q, rows = (x[better] for x in (a, b, v, av, bv, p, q, rows))
        out[rows] = p / q
    return np.abs(out)


def _padded(pencils) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack (a, b, v0) rows as diag(a, I), diag(b, 0), (v0, 0) at d = DIMS[1].

    The padded coordinates of v, Av, Bv and the gradient stay exactly 0, so each
    padded row climbs as it would alone.
    """
    dim = DIMS[1]
    a_pad = np.tile(np.eye(dim), (len(pencils), 1, 1))
    b_pad = np.zeros((len(pencils), dim, dim))
    v_pad = np.zeros((len(pencils), dim))
    for row, (a, b, v0) in enumerate(pencils):
        d = len(v0)
        a_pad[row, :d, :d], b_pad[row, :d, :d], v_pad[row, :d] = a, b, v0
    return a_pad, b_pad, v_pad


def check_rate_identity(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Four routes to the sup rate agree: two spectral radii, one norm, one searched sup.

    The direction search draws random candidates and polishes the best of each
    sign branch by exact 2x2 Rayleigh-Ritz steps on the generalized Rayleigh
    quotient, one padded batch per call: the start rows of every trial climb
    together in one `_ratio_ascent` call (plain sampling cannot reach the sup
    to 1e-2 beyond a few dimensions).
    """
    rng = CounterRNG((seed, 1))
    out = SuiteResult("rate_identity", trials)
    routes, sampled, pencils, owners = [], [], [], []
    for trial in range(trials):
        d = _dim(rng)
        a = random_spd(rng, d)
        b = random_symmetric(rng, d)
        a_inv = np.linalg.inv(a)
        rho_ab = float(np.max(np.abs(np.linalg.eigvals(a_inv @ b))))
        rho_ba = float(np.max(np.abs(np.linalg.eigvals(b @ a_inv))))
        norm_route = linalg.generalized_rate_pair(a, b).rho_sup
        v = rng.gaussian(2000 * d).reshape(2000, d)
        quad_b = _rows_dot(v @ b, v)
        quad_a = _rows_dot(v @ a, v)
        ratios = np.abs(quad_b) / quad_a
        sampled.append(float(np.max(ratios)))
        for branch in (quad_b >= 0, quad_b < 0):
            if np.any(branch):
                # a copy: a view would keep the whole 2000 x d sample alive
                pencils.append((a, b, v[np.argmax(np.where(branch, ratios, -np.inf))].copy()))
                owners.append(trial)
        routes.append((a, b, rho_ab, rho_ba, norm_route))
    searched = np.array(sampled)
    np.maximum.at(searched, owners, _ratio_ascent(*_padded(pencils)))
    for (a, b, rho_ab, rho_ba, norm_route), sampled_sup, searched_sup in zip(
            routes, sampled, searched.tolist()):
        exact_gap = max(abs(rho_ab - norm_route), abs(rho_ba - norm_route))
        ok = (
            exact_gap <= 1e-6 * (1.0 + norm_route)
            and searched_sup <= norm_route * (1.0 + 1e-9) + 1e-12
            and norm_route - searched_sup <= 1e-2 * (1.0 + norm_route)
        )
        if not ok:
            out.failures.append(
                {"a": a.tolist(), "b": b.tolist(), "rho_ab": rho_ab, "rho_ba": rho_ba,
                 "norm_route": norm_route, "sampled_sup": sampled_sup,
                 "searched_sup": searched_sup}
            )
    return out


def check_domination(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """x'Ax <= x'By forces |x|_A <= rho |y|_A with rho the weighted norm of B."""
    rng = CounterRNG((seed, 2))
    out = SuiteResult("domination", trials)
    done = 0
    attempts = 0
    while done < trials and attempts < 100 * trials:
        attempts += 1
        d = _dim(rng)
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


def check_norm_perturbation(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Nearby SPD matrices induce norms sandwiched within a relative epsilon."""
    rng = CounterRNG((seed, 3))
    out = SuiteResult("norm_perturbation", trials)
    for _ in range(trials):
        d = _dim(rng)
        s_star = random_spd(rng, d)
        min_eig = linalg.eigh(s_star).eigenvalues[0]
        for eps in (0.5, 0.1, 0.01):
            delta = eps * min_eig / 2.0
            m = random_symmetric(rng, d)
            m *= delta * 0.999 / max(linalg.spectral_norm(m), 1e-300)
            s = linalg.symmetrize(s_star + m)
            xs = rng.gaussian(100 * d).reshape(100, d)
            ns = np.sqrt(_rows_dot(xs @ s, xs))
            nstar = np.sqrt(_rows_dot(xs @ s_star, xs))
            good = np.all(nstar >= (1 - eps) * ns - 1e-12) and np.all(
                nstar <= (1 + eps) * ns + 1e-12
            )
            if not good:
                out.failures.append(
                    {"s_star": s_star.tolist(), "s": s.tolist(), "eps": eps, "delta": delta}
                )
    return out


def check_rate_perturbation(trials: int = 1000, seed: int = 0) -> SuiteResult:
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
        d = _dim(rng)
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


def check_eigh_reconstruction(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """eigh output reconstructs the input and keeps eigenvectors orthonormal.

    A guard on the LAPACK path: it checks the decomposition against its own
    input rather than against a second eigensolver.
    """
    rng = CounterRNG((seed, 5))
    out = SuiteResult("eigh_reconstruction", trials)
    for _ in range(trials):
        d = _dim(rng)
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


def run_all(trials: int = 1000, seed: int = 0) -> list[SuiteResult]:
    return [suite(trials=trials, seed=seed) for suite in ALL_SUITES]
