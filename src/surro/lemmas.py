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


def _lower_solve(l, g1, g2, g3):
    """Row-wise forward substitution L y = g, with L = (l11, l21, l22, l31, l32, l33)."""
    l11, l21, l22, l31, l32, l33 = l
    y1 = g1 / l11
    y2 = (g2 - l21 * y1) / l22
    return y1, y2, (g3 - l31 * y1 - l32 * y2) / l33


def _adjugate_column(c11, c12, c13, c22, c23, c33, lam):
    """Row-wise largest-diagonal column of adj(C - lam I), a null vector of C - lam I.

    The columns of the adjugate are cross products of rows of C - lam I; where lam is
    a simple root, the largest-diagonal one is well away from 0.
    """
    m11, m22, m33 = c11 - lam, c22 - lam, c33 - lam
    j11, j22, j33 = m22 * m33 - c23**2, m11 * m33 - c13**2, m11 * m22 - c12**2
    j12, j13, j23 = c13 * c23 - c12 * m33, c12 * c23 - c13 * m22, c12 * c13 - m11 * c23
    first = (np.abs(j11) >= np.abs(j22)) & (np.abs(j11) >= np.abs(j33))
    second = ~first & (np.abs(j22) >= np.abs(j33))
    return tuple(np.where(first, x1, np.where(second, x2, x3))
                 for x1, x2, x3 in ((j11, j12, j13), (j12, j22, j23), (j13, j23, j33)))


def _plane_top(c, x):
    """Row-wise top eigenvector of symmetric C on the plane orthogonal to x (nonzero rows).

    The exact 2x2 Rayleigh-Ritz step on an orthonormal basis p, q of the plane: columns
    2 and 3 of the reflector I - w w' / k, w = x + sign(x1) e1, k = 1 + |x1|, for unit x.
    """
    c11, c12, c13, c22, c23, c33 = c
    x1, x2, x3 = x / np.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)
    sign, k = np.where(x1 >= 0, 1.0, -1.0), 1.0 + np.abs(x1)
    p = (-sign * x2, 1.0 - x2**2 / k, -x2 * x3 / k)
    q = (-sign * x3, p[2], 1.0 - x3**2 / k)
    cp, cq = ((c11 * y1 + c12 * y2 + c13 * y3, c12 * y1 + c22 * y2 + c23 * y3,
               c13 * y1 + c23 * y2 + c33 * y3) for y1, y2, y3 in (p, q))
    pcp, pcq, qcq = (y1 * w1 + y2 * w2 + y3 * w3
                     for (y1, y2, y3), (w1, w2, w3) in ((p, cp), (p, cq), (q, cq)))
    t = 0.5 * np.arctan2(2.0 * pcq, pcp - qcq)
    return tuple(np.cos(t) * pj + np.sin(t) * qj for pj, qj in zip(p, q))


def _sym3_top(c11, c12, c13, c22, c23, c33):
    """Row-wise eigenvector for the largest eigenvalue of a symmetric 3x3, with no eigensolver.

    The roots are trigonometric: mean + 2s cos((arccos(h) + 2 pi k) / 3), with
    h = det(C - mean I) / 2s^3 and 6s^2 = |C - mean I|_F^2; k = 0 is the top root and
    k = 1 the bottom one. The vector is `_adjugate_column` at the top root. Where the
    top two roots are closer than 1.7% of the spread (h < -0.999), that vector can be
    rounding noise; the bottom root is then simple, and the top vector is `_plane_top`
    on the complement of the bottom root's vector. Where C is a multiple of I the
    vector is 0.
    """
    c = (c11, c12, c13, c22, c23, c33)
    mean = (c11 + c22 + c33) / 3.0
    d1, d2, d3 = c11 - mean, c22 - mean, c33 - mean
    s = np.sqrt((d1**2 + d2**2 + d3**2 + 2.0 * (c12**2 + c13**2 + c23**2)) / 6.0)
    det = d1 * (d2 * d3 - c23**2) - c12 * (c12 * d3 - c23 * c13) + c13 * (c12 * c23 - d2 * c13)
    s3 = 2.0 * s**3
    half = np.divide(det, s3, out=np.ones_like(det), where=s3 > 0)  # C = mean I: lam = mean
    angle = np.arccos(np.clip(half, -1.0, 1.0)) / 3.0
    z = _adjugate_column(*c, mean + 2.0 * s * np.cos(angle))
    pair = np.flatnonzero(half < -0.999)
    if len(pair):
        c = tuple(x[pair] for x in c)
        bottom = mean[pair] + 2.0 * s[pair] * np.cos(angle[pair] + 2.0 * np.pi / 3.0)
        for zj, wj in zip(z, _plane_top(c, np.array(_adjugate_column(*c, bottom)))):
            zj[pair] = wj
    return z


def _ratio_ascent(a: np.ndarray, b: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Per row, climb v'Bv / v'Av from v0; pass -B for the lower branch. No eigensolver.

    a (n, d, d) SPD, b (n, d, d) symmetric, v0 (n, d) nonzero; returns the n climbed
    values, signed. Any start reaches the top of the pencil (A, B), so the top of (A, B)
    and of (A, -B) climbed from one start give rho_sup = max(lam_max, -lam_min).
    Exact 3-term Rayleigh-Ritz steps (the LOBPCG step, Knyazev, SIAM J. Sci. Comput.
    2001), one padded batch per call: each step moves a row to the maximiser of
    v'Bv / v'Av on span{v, u, r}, u the gradient with its v component removed and r
    the previous iterate with its v and u components removed. On the basis
    S = [v, u, r] the step is closed form: a scalar Cholesky L L' of the A-Gram S'AS
    whitens the B-Gram to C = L^-1 S'BS L^-T, `_sym3_top` gives a vector z for C's
    largest root, and L^-T z are the Ritz vector's coordinates. Where r adds no
    direction (the first step, d <= 2, a previous iterate inside span{v, u}), r is 0
    and its slot in C gets a value below the 2x2 block's roots, so the step is the 2x2
    step on span{v, u}. A row stops when its gradient vanishes, when a step does not
    strictly improve it, or after ASCENT_STEPS steps.
    """
    v = v0 / np.linalg.norm(v0, axis=1, keepdims=True)
    av, bv = _apply(a, v), _apply(b, v)
    p, q = _rows_dot(v, bv), _rows_dot(v, av)
    out = p / q
    rows = np.arange(len(v))
    prev = np.zeros_like(v)
    upper = (slice(None), [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2])
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
        a11, a12, a13, a22, a23, a33 = ((s @ a) @ st)[upper].T
        b11, b12, b13, b22, b23, b33 = ((s @ b) @ st)[upper].T
        l11 = np.sqrt(a11)
        l21, l31 = a12 / l11, a13 / l11
        l22 = np.sqrt(a22 - l21**2)
        l32 = (a23 - l31 * l21) / l22
        # a dropped r has a zero row and column in both Grams: l33 = 1 keeps it decoupled
        l33 = np.sqrt(np.where(kept, a33 - l31**2 - l32**2, 1.0))
        l = (l11, l21, l22, l31, l32, l33)
        # C = L^-1 (L^-1 B_S)': solve for the columns of B_S, then for the rows of the result
        x1, x2, x3 = (_lower_solve(l, *g) for g in ((b11, b12, b13), (b12, b22, b23),
                                                     (b13, b23, b33)))
        c11, c12, c13 = _lower_solve(l, x1[0], x2[0], x3[0])
        c22, c23 = _lower_solve(l, x1[1], x2[1], x3[1])[1:]
        # a dropped r's slot sits below the 2x2 block's roots (Gershgorin): the 2x2 step
        c33 = np.where(kept, _lower_solve(l, x1[2], x2[2], x3[2])[2],
                       np.minimum(c11, c22) - np.abs(c12))
        z1, z2, z3 = _sym3_top(c11, c12, c13, c22, c23, c33)
        y3 = z3 / l33
        y2 = (z2 - l32 * y3) / l22
        y1 = (z1 - l21 * y2 - l31 * y3) / l11
        w = y1[:, None] * v + y2[:, None] * u + y3[:, None] * r
        # C = c I has adj(C - lam I) = 0: w stays 0, and pw > value * qw rejects it
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

    The searched sup calls no eigensolver: each trial draws one start v and climbs it
    to the top of the pencil (A, B) and of (A, -B) by exact 3-term Rayleigh-Ritz steps
    (`_ratio_ascent`), the larger of the two being max(lam_max, -lam_min). The rows of
    every trial climb together in one padded batch. The climb reaches the top to
    rounding, so the searched sup must come within 1e-6 (1 + rho) of the norm route,
    the bound the exact routes meet. A failure records A, B and the start, from which
    `_ratio_ascent` on the padded rows (A, B, v) and (A, -B, v) replays the searched sup.
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
