"""Randomized property suites for the linear-algebra layer.

Each suite stress-tests one identity or perturbation bound behind the rate
machinery on a stream of random matrices, and reports any counterexample with
the offending inputs so it can be replayed verbatim. A suite's own stream first sets
every trial's dimension d = 1..8 in one uniform read; then, d ascending, each of its
`FIELDS` is one draw for all of that d's trials. Every suite checks each d's trials
once, as one stack through the stacked `linalg` and `np.linalg` calls, and
counterexamples are reported in trial order.
"""

from __future__ import annotations

import math
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


# Each suite's draws per trial at its dimension d: ("g" normals | "u" uniforms, d -> shape)
_SQUARE, _NORMAL, _UNIFORM = ("g", lambda d: (d, d)), ("g", lambda d: (d,)), ("u", lambda d: (d,))
FIELDS = {
    "rate_identity": (_SQUARE, _UNIFORM, _SQUARE, _NORMAL),
    "domination": (_SQUARE, _UNIFORM, _SQUARE, _NORMAL, _NORMAL),
    "norm_perturbation": (_SQUARE, _UNIFORM) + (_SQUARE, ("g", lambda d: (100, d))) * 3,
    "rate_perturbation": (_SQUARE, _UNIFORM) + (_SQUARE,) * 3,
    "eigh_reconstruction": (_SQUARE, ("g", lambda d: ())),
}


def _spd(g: np.ndarray, u: np.ndarray, cond_range=(0.3, 3.0)) -> np.ndarray:
    """Q diag(lam) Q', Q from the QR of g (..., d, d), lam log-uniform in cond_range by u."""
    lo, hi = np.log(cond_range[0]), np.log(cond_range[1])
    q, _ = np.linalg.qr(g + np.eye(g.shape[-1]) * 1e-3)
    return linalg.symmetrize((q * np.exp(lo + (hi - lo) * u)[..., None, :]) @ q.swapaxes(-1, -2))


def _stacks(rng: CounterRNG, trials: int, fields):
    """Yield, d ascending, each drawn d's trial indices and `fields` stacked over its trials.

    One `rng.uniform(trials)` sets every trial's d; then, d ascending, each field is one
    `rng.gaussian` or `rng.uniform` call for all n_d of d's trials, shaped (n_d, *shape(d)).
    """
    lo, hi = DIMS
    dims = lo + (rng.uniform(trials) * (hi - lo + 1)).astype(int)
    for d in range(lo, hi + 1):
        idx = np.flatnonzero(dims == d)
        if len(idx):
            yield idx, [(rng.gaussian if kind == "g" else rng.uniform)(
                len(idx) * math.prod(shape(d))).reshape(len(idx), *shape(d))
                for kind, shape in fields]


def _in_trial_order(found) -> list[dict]:
    """The records of (trial, record) pairs, by trial; one trial's records keep their order."""
    return [record for _, record in sorted(found, key=lambda f: f[0])]


def _quad(x: np.ndarray, m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise x[i] @ m[i] @ y[i], the same operations as on one row."""
    return (x[..., None, :] @ m @ y[..., :, None])[..., 0, 0]


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise m[i] @ x[i] for a stack m (n, d, d) and rows x (n, d)."""
    return (m @ x[..., None])[..., 0]


def _rows_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...j,...j->...", x, y)


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
    The rows of every trial climb together in one padded batch, to the top within
    rounding, so the searched sup must come within 1e-6 (1 + rho) of the norm route,
    the bound the exact routes meet. A failure records A, B and the start v, from which
    `_ratio_ascent` on the padded rows (A, B, v) and (A, -B, v) replays it.
    """
    stacks = [(idx, _spd(g, u), linalg.symmetrize(b), v) for idx, (g, u, b, v) in _stacks(
        CounterRNG((seed, 1)), trials, FIELDS["rate_identity"])]
    pencils = [pencil for _, a, b, v in stacks for a_k, b_k, v_k in zip(a, b, v)
               for pencil in ((a_k, b_k, v_k), (a_k, -b_k, v_k))]
    searched = _ratio_ascent(*_padded(pencils)).reshape(-1, 2).max(axis=1)
    found = []
    for (idx, a, b, v), searched_sup in zip(stacks, np.split(
            searched, np.cumsum([len(idx) for idx, *_ in stacks], dtype=int)[:-1])):
        a_inv = np.linalg.inv(a)
        rho_ab, rho_ba = (np.abs(np.linalg.eigvals(p)).max(axis=-1) for p in (a_inv @ b, b @ a_inv))
        norm_route = linalg.generalized_rate_pair(a, b).rho_sup
        exact_gap = np.maximum(np.abs(rho_ab - norm_route), np.abs(rho_ba - norm_route))
        ok = ((exact_gap <= 1e-6 * (1.0 + norm_route))
              & (searched_sup <= norm_route * (1.0 + 1e-9) + 1e-12)
              & (norm_route - searched_sup <= 1e-6 * (1.0 + norm_route)))
        found += [(idx[k], {"a": a[k].tolist(), "b": b[k].tolist(), "rho_ab": rho_ab[k],
                            "rho_ba": rho_ba[k], "norm_route": norm_route[k],
                            "start": v[k].tolist(), "searched_sup": searched_sup[k]})
                  for k in np.flatnonzero(~ok)]
    return SuiteResult("rate_identity", trials, _in_trial_order(found))


def check_domination(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """x'Ax <= x'By forces |x|_A <= rho |y|_A with rho the weighted norm of B.

    Every trial sits on the hypothesis boundary, the lemma's hardest case: y is flipped
    where x'By < 0, then x is scaled so that x'Ax = x'By. Each dimension's trials are
    checked as one stack.
    """
    found = []
    for idx, (g, u, b, x, y) in _stacks(CounterRNG((seed, 2)), trials, FIELDS["domination"]):
        a = _spd(g, u)
        xby = _quad(x, b, y)
        y[xby < 0] *= -1.0
        x *= (np.abs(xby) / _quad(x, a, x))[:, None]
        r = linalg.inv_sqrt(a)
        rho = linalg.spectral_norm(r @ b @ r)
        nx, ny = np.sqrt(_quad(x, a, x)), np.sqrt(_quad(y, a, y))
        found += [(idx[k], {"a": a[k].tolist(), "b": b[k].tolist(), "x": x[k].tolist(),
                            "y": y[k].tolist(), "norm_x": nx[k], "rho_norm_y": rho[k] * ny[k]})
                  for k in np.flatnonzero(nx > rho * ny + 1e-9)]
    return SuiteResult("domination", trials, _in_trial_order(found))


def check_norm_perturbation(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Nearby SPD matrices induce norms sandwiched within a relative epsilon."""
    eps = np.array([0.5, 0.1, 0.01])
    found = []
    for idx, (g, u, *pairs) in _stacks(CounterRNG((seed, 3)), trials, FIELDS["norm_perturbation"]):
        s_star, m, xs = _spd(g, u), np.stack(pairs[::2], axis=1), np.stack(pairs[1::2], axis=1)
        delta = eps * linalg.eigh(s_star).eigenvalues[:, :1] / 2.0
        m = linalg.symmetrize(m)
        m *= (delta * 0.999 / np.maximum(linalg.spectral_norm(m), 1e-300))[..., None, None]
        s = linalg.symmetrize(s_star[:, None] + m)
        ns = np.sqrt(_rows_dot(xs @ s, xs))
        nstar = np.sqrt(_rows_dot(xs @ s_star[:, None], xs))
        good = np.all((nstar >= (1 - eps)[:, None] * ns - 1e-12)
                      & (nstar <= (1 + eps)[:, None] * ns + 1e-12), axis=-1)
        found += [(idx[k], {"s_star": s_star[k].tolist(), "s": s[k, j].tolist(),
                            "eps": eps[j], "delta": delta[k, j]})
                  for k, j in np.argwhere(~good)]
    return SuiteResult("norm_perturbation", trials, _in_trial_order(found))


def check_rate_perturbation(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """The sup rate is locally Lipschitz in (A, B), with an explicit envelope.

    For |M| below half the smallest eigenvalue of A, comparing Rayleigh
    quotients term by term gives
        |rho(A+M, B+N) - rho(A, B)| <= (|N| + rho |M|) / (lambda_min(A) - |M|),
    a concrete instance of the existence statement; the suite checks it at
    three shrinking perturbation scales along shared directions.
    """
    scales = np.array([1e-2, 1e-3, 1e-4])
    found = []
    for idx, (g, u, b, m_dir, n_dir) in _stacks(CounterRNG((seed, 4)), trials,
                                                 FIELDS["rate_perturbation"]):
        a, b = _spd(g, u, (0.5, 2.0)), linalg.symmetrize(b)
        base = linalg.generalized_rate_pair(a, b).rho_sup[:, None]
        lam_min = linalg.eigh(a).eigenvalues[:, :1]
        m_dir, n_dir = (m / np.maximum(linalg.spectral_norm(m), 1e-300)[:, None, None]
                        for m in map(linalg.symmetrize, (m_dir, n_dir)))
        t = scales[:, None, None]
        pert = linalg.generalized_rate_pair(a[:, None] + t * m_dir[:, None],
                                            b[:, None] + t * n_dir[:, None]).rho_sup
        dev = np.abs(pert - base)
        envelope = (scales + base * scales) / (lam_min - scales)
        found += [(idx[k], {"a": a[k].tolist(), "b": b[k].tolist(), "m": m_dir[k].tolist(),
                            "n": n_dir[k].tolist(), "scale": scales[j], "deviation": dev[k, j],
                            "envelope": envelope[k, j]})
                  for k, j in np.argwhere(dev > envelope + 1e-9)]
    return SuiteResult("rate_perturbation", trials, _in_trial_order(found))


def check_eigh_reconstruction(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """eigh output reconstructs the input and keeps eigenvectors orthonormal.

    A guard on the LAPACK path: it checks the decomposition against its own
    input rather than against a second eigensolver.
    """
    found = []
    for idx, (g, scale) in _stacks(CounterRNG((seed, 5)), trials, FIELDS["eigh_reconstruction"]):
        s = linalg.symmetrize(g) * np.exp(2.0 * scale)[:, None, None]
        lam, vec = linalg.eigh(s)
        vec_t = vec.swapaxes(-1, -2)
        recon = np.max(np.abs((vec * lam[:, None, :]) @ vec_t - s), axis=(1, 2))
        ortho = np.max(np.abs(vec_t @ vec - np.eye(s.shape[-1])), axis=(1, 2))
        resid = np.max(np.abs(s @ vec - vec * lam[:, None, :]), axis=(1, 2))
        ok = ((recon <= 1e-9 * (1.0 + np.max(np.abs(s), axis=(1, 2)))) & (ortho <= 1e-10)
              & (resid <= 1e-9 * (1.0 + np.max(np.abs(lam), axis=1)))
              & np.all(np.diff(lam, axis=1) >= 0, axis=1))
        found += [(idx[k], {"s": s[k].tolist(), "ortho": ortho[k], "residual": resid[k]})
                  for k in np.flatnonzero(~ok)]
    return SuiteResult("eigh_reconstruction", trials, _in_trial_order(found))


ALL_SUITES = (
    check_rate_identity,
    check_domination,
    check_norm_perturbation,
    check_rate_perturbation,
    check_eigh_reconstruction,
)


def run_all(trials: int = 1000, seed: int = 0) -> list[SuiteResult]:
    return [suite(trials=trials, seed=seed) for suite in ALL_SUITES]
