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
    """Per row, climb v'Bv / v'Av from v0; pass -B for the lower branch.

    a (n, d, d) SPD, b (n, d, d) symmetric, v0 (n, d) nonzero; returns the n climbed
    values, signed. Any start reaches the top of the pencil (A, B), so the top of (A, B)
    and of (A, -B) climbed from one start give rho_sup = max(lam_max, -lam_min).
    Exact 3-term Rayleigh-Ritz steps (the LOBPCG step, Knyazev, SIAM J. Sci. Comput.
    2001), one padded batch per call: each step moves a row to the maximiser of
    v'Bv / v'Av on span{v, u, r}, u the gradient with its v component removed and r
    the previous iterate with its v and u components removed. On the basis
    S = [v, u, r], the Cholesky factor L of the A-Gram S'AS whitens the B-Gram to
    C = L^-1 S'BS L^-T; L^-T z, z the top eigenvector of C, are the Ritz vector's
    coordinates. Where r adds no direction (the first step, d <= 2, a previous iterate
    inside span{v, u}), r is 0 and its slot in C gets a value below the 2x2 block's
    roots, so the step is the 2x2 step on span{v, u}. A row stops when its gradient
    vanishes, when a step does not strictly improve it, or after ASCENT_STEPS steps.

    A row's value is always the Rayleigh quotient v'Bv / v'Av of its own A and B, never
    an eigenvalue: `np.linalg.eigh` only proposes a direction. A wrong direction can
    stall a row below the top, but cannot lift it above.
    """
    v = v0 / np.linalg.norm(v0, axis=1, keepdims=True)
    av, bv = _apply(a, v), _apply(b, v)
    p, q = _rows_dot(v, bv), _rows_dot(v, av)
    out = p / q
    rows = np.arange(len(v))
    prev = np.zeros_like(v)
    for _ in range(ASCENT_STEPS):
        if not len(rows):
            break
        value = p / q
        grad = 2.0 * (bv * q[:, None] - p[:, None] * av) / (q**2)[:, None]
        u = grad - _rows_dot(grad, v)[:, None] * v
        unorm = np.linalg.norm(u, axis=1)
        live = (np.linalg.norm(grad, axis=1) > 1e-14 * (1.0 + np.abs(value))) & (unorm > 0)
        if not live.all():
            a, b, v, prev, value, rows, u, unorm = (
                x[live] for x in (a, b, v, prev, value, rows, u, unorm))
        u /= unorm[:, None]
        r = prev - _rows_dot(prev, v)[:, None] * v - _rows_dot(prev, u)[:, None] * u
        rnorm = np.linalg.norm(r, axis=1)
        kept = rnorm > 1e-8  # a shorter r is rounding left over from span{v, u}
        r *= np.divide(1.0, rnorm, out=np.zeros_like(rnorm), where=kept)[:, None]
        s = np.stack((v, u, r), axis=1)
        st = s.transpose(0, 2, 1)
        gram_a, gram_b = (s @ a) @ st, (s @ b) @ st
        # a dropped r has a zero row and column in both Grams: a33 = 1 keeps it decoupled
        gram_a[:, 2, 2] = np.where(kept, gram_a[:, 2, 2], 1.0)
        l_inv = np.linalg.inv(np.linalg.cholesky(gram_a))
        c = l_inv @ gram_b @ l_inv.transpose(0, 2, 1)
        # a dropped r's slot sits below the 2x2 block's roots (Gershgorin): the 2x2 step
        c[:, 2, 2] = np.where(kept, c[:, 2, 2],
                              np.minimum(c[:, 0, 0], c[:, 1, 1]) - np.abs(c[:, 0, 1]))
        w = _apply(st @ l_inv.transpose(0, 2, 1), np.linalg.eigh(c)[1][..., -1])
        # w = 0 where eigh proposes a dropped r's slot; pw > value * qw then rejects it
        wnorm = np.linalg.norm(w, axis=1, keepdims=True)
        np.divide(w, wnorm, out=w, where=wnorm > 0)
        aw, bw = _apply(a, w), _apply(b, w)
        pw, qw = _rows_dot(w, bw), _rows_dot(w, aw)
        better = pw > value * qw
        prev, v, av, bv, p, q = v, w, aw, bw, pw, qw
        if not better.all():
            a, b, v, prev, av, bv, p, q, rows = (
                x[better] for x in (a, b, v, prev, av, bv, p, q, rows))
        out[rows] = p / q
    return out


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

    The searched sup is a Rayleigh quotient, not an eigenvalue: each trial draws one
    start v and climbs v'Bv / v'Av to the top of the pencil (A, B) and of (A, -B) by
    exact 3-term Rayleigh-Ritz steps (`_ratio_ascent`), the larger of the two being
    max(lam_max, -lam_min). Its eigensolver only proposes the directions climbed along,
    so an eigensolver defect shared by the other routes cannot lift it above the top.
    The rows of every trial climb together in one padded batch. The climb reaches the
    top to rounding, so the searched sup must come within 1e-6 (1 + rho) of the norm
    route, the bound the exact routes meet. A failure records A, B and the start, from
    which `_ratio_ascent` on the padded rows (A, B, v) and (A, -B, v) replays the
    searched sup.
    """
    rng = CounterRNG((seed, 1))
    out = SuiteResult("rate_identity", trials)
    routes, pencils = [], []
    for _ in range(trials):
        d = _dim(rng)
        a = random_spd(rng, d)
        b = random_symmetric(rng, d)
        a_inv = np.linalg.inv(a)
        rho_ab = float(np.max(np.abs(np.linalg.eigvals(a_inv @ b))))
        rho_ba = float(np.max(np.abs(np.linalg.eigvals(b @ a_inv))))
        norm_route = linalg.generalized_rate_pair(a, b).rho_sup
        v = rng.gaussian(d)
        pencils += [(a, b, v), (a, -b, v)]
        routes.append((a, b, v, rho_ab, rho_ba, norm_route))
    searched = _ratio_ascent(*_padded(pencils)).reshape(-1, 2).max(axis=1)
    for (a, b, v, rho_ab, rho_ba, norm_route), searched_sup in zip(routes, searched.tolist()):
        exact_gap = max(abs(rho_ab - norm_route), abs(rho_ba - norm_route))
        ok = (
            exact_gap <= 1e-6 * (1.0 + norm_route)
            and searched_sup <= norm_route * (1.0 + 1e-9) + 1e-12
            and norm_route - searched_sup <= 1e-6 * (1.0 + norm_route)
        )
        if not ok:
            out.failures.append(
                {"a": a.tolist(), "b": b.tolist(), "rho_ab": rho_ab, "rho_ba": rho_ba,
                 "norm_route": norm_route, "start": v.tolist(),
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
