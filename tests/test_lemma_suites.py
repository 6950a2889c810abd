"""Randomized linear-algebra suites: clean runs and replayable streams."""

import numpy as np
import pytest

from surro import lemmas, linalg, report
from surro.rng import CounterRNG


def _square(rng, d):
    return rng.gaussian(d * d).reshape(d, d)


def _random_spd(rng, d):
    return lemmas._spd(_square(rng, d), rng.uniform(d))


def _random_symmetric(rng, d):
    return linalg.symmetrize(_square(rng, d))


# The reference for `_stacks`: each suite's draws for n trials of dimension d, one
# CounterRNG call per field, every shape written out
PER_CALL = {
    "rate_identity": lambda rng, n, d: (
        _squares(rng, n, d), _rows(rng.uniform, n, d), _squares(rng, n, d),
        _rows(rng.gaussian, n, d)),
    "domination": lambda rng, n, d: (
        _squares(rng, n, d), _rows(rng.uniform, n, d), _squares(rng, n, d),
        _rows(rng.gaussian, n, d), _rows(rng.gaussian, n, d)),
    "norm_perturbation": lambda rng, n, d: (_squares(rng, n, d), _rows(rng.uniform, n, d), *(
        x for _ in range(3)
        for x in (_squares(rng, n, d), rng.gaussian(n * 100 * d).reshape(n, 100, d)))),
    "rate_perturbation": lambda rng, n, d: (
        _squares(rng, n, d), _rows(rng.uniform, n, d), *(_squares(rng, n, d) for _ in range(3))),
    "eigh_reconstruction": lambda rng, n, d: (_squares(rng, n, d), rng.gaussian(n)),
}


def _squares(rng, n, d):
    return rng.gaussian(n * d * d).reshape(n, d, d)


def _rows(draw, n, d):
    return draw(n * d).reshape(n, d)


def _per_call_stacks(rng, trials, draw):
    """The reference `_stacks`: rng.uniform(trials) for every d, then draw(rng, n_d, d)."""
    lo, hi = lemmas.DIMS
    dims = [lo + int(u * (hi - lo + 1)) for u in rng.uniform(trials)]
    for d in range(lo, hi + 1):
        idx = [i for i, di in enumerate(dims) if di == d]
        if idx:
            yield np.array(idx), list(draw(rng, len(idx), d))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("trials", [1, 2, 20, 150])
@pytest.mark.parametrize("name", list(PER_CALL))
def test_stacks_are_bitwise_the_per_call_draws(name, trials, seed):
    # two reads of different sizes in a row from one stream, then the stream position:
    # each read starts where the one before it left off
    rng, reference = CounterRNG((seed, 7)), CounterRNG((seed, 7))
    assert list(PER_CALL) == list(lemmas.FIELDS)
    for size in (trials, 3 * trials + 1):
        got = list(lemmas._stacks(rng, size, lemmas.FIELDS[name]))
        want = list(_per_call_stacks(reference, size, PER_CALL[name]))
        assert len(got) == len(want)
        assert sorted(i for idx, _ in got for i in idx) == list(range(size))
        for (idx, fields), (want_idx, want_fields) in zip(got, want):
            assert idx.tobytes() == want_idx.astype(idx.dtype).tobytes()
            assert len(fields) == len(want_fields) == len(lemmas.FIELDS[name])
            for f, w in zip(fields, want_fields):
                assert f.shape == w.shape and f.dtype == w.dtype == np.float64
                assert f.tobytes() == w.tobytes()
    assert rng.uniform(5).tobytes() == reference.uniform(5).tobytes()


def test_all_suites_clean_at_reduced_trial_count():
    for result in lemmas.run_all(trials=150, seed=0):
        assert result.passed, f"{result.name}: {result.failures[:1]}"


@pytest.mark.parametrize("trials", [1, 2])
def test_suites_run_with_most_dimensions_drawing_no_trial(trials):
    # at most two of the eight dimensions hold a trial: the others must be skipped
    for result in lemmas.run_all(trials=trials, seed=0):
        assert result.passed and result.trials == trials


def test_suites_are_deterministic_in_the_seed():
    a = lemmas.check_rate_identity(trials=25, seed=9)
    b = lemmas.check_rate_identity(trials=25, seed=9)
    assert a.trials == b.trials and a.failures == b.failures


def test_random_spd_is_spd():
    rng = CounterRNG(5)
    for _ in range(50):
        a = _random_spd(rng, 6)
        assert np.all(np.linalg.eigvalsh(a) > 0)
        np.testing.assert_allclose(a, a.T)


def test_domination_counts_only_valid_hypotheses():
    result = lemmas.check_domination(trials=100, seed=3)
    assert result.trials == 100
    assert result.passed


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("trials", [1, 2, 7, 20, 150])
def test_domination_trials_lie_on_the_hypothesis_boundary(monkeypatch, trials, seed):
    # with the weighted norm planted to 0 every trial is a record: each record's own fields
    # meet the hypothesis with equality, x'By >= 0 and x'Ax = x'By to rounding
    monkeypatch.setattr(linalg, "spectral_norm", lambda m: np.zeros(np.shape(m)[:-2]))
    result = lemmas.check_domination(trials=trials, seed=seed)
    assert result.trials == trials == len(result.failures)
    for f in result.failures:
        a, b, x, y = (np.array(f[k]) for k in ("a", "b", "x", "y"))
        xax, xby = x @ a @ x, x @ b @ y
        scale = np.linalg.norm(x) * (np.linalg.norm(a) * np.linalg.norm(x)
                                     + np.linalg.norm(b) * np.linalg.norm(y))
        assert xby >= 0 and abs(xax - xby) <= 1e-13 * scale


@pytest.mark.parametrize("shrink", [1e-2, 1e-6])
def test_domination_records_a_slightly_low_norm(monkeypatch, shrink):
    # a boundary trial is the lemma's tight case: a weighted norm a hair low is a record
    exact = linalg.spectral_norm
    monkeypatch.setattr(linalg, "spectral_norm", lambda m: (1.0 - shrink) * exact(m))
    assert not lemmas.check_domination(trials=20, seed=0).passed


def test_ratio_ascent_reaches_known_extremes():
    # starts on both sides of v'Bv = 0 reach the top of (A, B), and of (A, -B)
    a = np.repeat(np.eye(3)[None], 8, 0)
    b = np.repeat(np.diag([0.9, -0.2, 0.1])[None], 8, 0)
    starts = CounterRNG(6).gaussian(3 * 8).reshape(8, 3)
    positive = np.einsum("ij,ijk,ik->i", starts, b, starts) >= 0
    assert positive.any() and not positive.all()
    np.testing.assert_allclose(lemmas._ratio_ascent(a, b, starts), 0.9, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lemmas._ratio_ascent(a, -b, starts), 0.2, rtol=0, atol=1e-12)


def _tops(pencils) -> np.ndarray:
    """Each row's top root of (A, B), np.linalg.eigvals(inv(A) @ B).max(), unpadded.

    A padded row's start is 0 exactly on the padding, which its climb never leaves.
    """
    want = []
    for a, b, v0 in pencils:
        d = np.count_nonzero(v0)
        want.append(np.linalg.eigvals(np.linalg.inv(a[:d, :d]) @ b[:d, :d]).real.max())
    return np.array(want)


def _oracle_pencils() -> list:
    """(A, +-B, v0) rows: 10 pencils per d = 1..8, 3 starts for each sign of B."""
    rng = CounterRNG(11)
    pencils = []
    for d in range(1, 9):
        for _ in range(10):
            a = _random_spd(rng, d)
            b = _random_symmetric(rng, d)
            pencils += [(a, sign * b, v0) for sign, v0 in
                        zip((1.0, -1.0) * 3, rng.gaussian(6 * d).reshape(6, d))]
    return pencils


def test_ratio_ascent_matches_eigvals_oracle_padded_or_not():
    pencils = _oracle_pencils()
    want = _tops(pencils)
    dims = np.array([len(v0) for _, _, v0 in pencils])
    unpadded = np.empty(len(pencils))
    for d in range(1, 9):
        rows = [pencils[i] for i in np.flatnonzero(dims == d)]
        unpadded[dims == d] = lemmas._ratio_ascent(*(np.array(x) for x in zip(*rows)))
    # within ASCENT_STEPS every row reaches its top, and never passes it
    np.testing.assert_allclose(unpadded, want, rtol=1e-9, atol=0)
    assert np.all(unpadded <= want + 1e-12 * np.abs(want))
    padded = lemmas._ratio_ascent(*lemmas._padded(pencils))
    np.testing.assert_allclose(padded, unpadded, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [0, 1])
def test_rate_identity_witness_rows_reach_the_extreme(monkeypatch, seed):
    # every row the suite batches, (A, B, v) and (A, -B, v), against its pencil's eigvals top
    batches = []
    ascent = lemmas._ratio_ascent

    def capture(a, b, v0):
        batches.append((a, b, v0))
        return ascent(a, b, v0)

    monkeypatch.setattr(lemmas, "_ratio_ascent", capture)
    assert lemmas.check_rate_identity(trials=200, seed=seed).passed
    (a, b, v0), = batches
    np.testing.assert_array_equal(b[::2], -b[1::2])
    want = _tops(zip(a, b, v0))
    climbed = ascent(a, b, v0)
    assert np.max((want - climbed) / np.abs(want)) <= 1e-9
    assert np.max((climbed - want) / np.abs(want)) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ratio_ascent_on_repeated_extremes():
    # the tops of (A, B) and (A, -B) are double roots; the first 10 rows stay in
    # span{e1, e4}, where every previous iterate lies in span{v, u} and the step falls
    # back to 2x2
    a = np.repeat(np.eye(5)[None], 40, 0)
    b = np.repeat(np.diag([1.0, 1.0, 0.25, -0.5, -0.5])[None], 40, 0)
    starts = CounterRNG(13).gaussian(5 * 40).reshape(40, 5)
    starts[:10, [1, 2, 4]] = 0.0
    positive = np.einsum("ij,ijk,ik->i", starts, b, starts) >= 0
    assert positive[:10].any() and not positive[:10].all()
    np.testing.assert_allclose(lemmas._ratio_ascent(a, b, starts), 1.0, rtol=1e-12, atol=0)
    np.testing.assert_allclose(lemmas._ratio_ascent(a, -b, starts), 0.5, rtol=1e-12, atol=0)


def test_ratio_ascent_finds_a_sup_in_a_thin_cone():
    # B = diag(-1.05, 1, ..., 1): v'Bv < 0 only in a thin cone around e1, where the sup
    # lies; a -B row started outside that cone still climbs to it
    starts = CounterRNG(17).gaussian(8 * 16).reshape(16, 8)
    starts = starts[starts[:, 0] ** 2 * 1.05 < np.sum(starts[:, 1:] ** 2, axis=1)]
    assert len(starts) == 15
    a = np.repeat(np.eye(8)[None], 15, 0)
    b = np.repeat(np.diag([-1.05] + [1.0] * 7)[None], 15, 0)
    np.testing.assert_allclose(lemmas._ratio_ascent(a, -b, starts), 1.05, rtol=1e-12, atol=0)
    np.testing.assert_allclose(lemmas._ratio_ascent(a, b, starts), 1.0, rtol=1e-12, atol=0)
    assert linalg.generalized_rate_pair(a[0], b[0]).rho_sup == pytest.approx(1.05, rel=1e-15)


def test_rate_identity_draws_one_start_per_trial(monkeypatch):
    # per trial: d * d normals for A's square, d uniforms, d * d for B's square, then the d
    # normals of the one start, which both witness rows (A, B, v) and (A, -B, v) climb from
    for d in range(1, 9):
        assert [(kind, shape(d)) for kind, shape in lemmas.FIELDS["rate_identity"]] == [
            ("g", (d, d)), ("u", (d,)), ("g", (d, d)), ("g", (d,))]
    batches = []
    ascent = lemmas._ratio_ascent

    def capture(a, b, v0):
        batches.append(v0)
        return ascent(a, b, v0)

    monkeypatch.setattr(lemmas, "_ratio_ascent", capture)
    assert lemmas.check_rate_identity(trials=50, seed=3).passed
    (v0,) = batches
    starts = [v for _, (*_, vs) in lemmas._stacks(
        CounterRNG((3, 1)), 50, lemmas.FIELDS["rate_identity"]) for v in vs]
    assert len(v0) == 2 * len(starts) == 2 * 50 and len({len(v) for v in starts}) > 1
    np.testing.assert_array_equal(v0[1::2], v0[::2])
    for row, v in zip(v0[::2], starts):
        assert row[:len(v)].tobytes() == v.tobytes() and not row[len(v):].any()


@pytest.mark.parametrize("gap", [0.0, 1e-14, 1e-10, 1e-6, 0.02, 0.05])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ratio_ascent_on_a_near_double_root(gap, sign):
    # generalized roots sign * (1, 1 - gap, d - 2 more spread over [-0.5, 0.5]): a
    # near-double top (sign 1) or bottom (-1) of the pencil, so of the whitened 3x3 steps
    pencils, want = [], []
    for d in (3, 5, 8):
        roots = sign * np.concatenate(([1.0, 1.0 - gap], np.linspace(-0.5, 0.5, d - 2)))
        for i in range(20):
            rng = CounterRNG((15, d, i))
            a = _random_spd(rng, d)
            q, _ = np.linalg.qr(rng.gaussian(d * d).reshape(d, d))
            half = np.linalg.cholesky(a) @ q
            pencils.append((a, (half * roots) @ half.T, rng.gaussian(d)))
            want.append(roots.max())
    want = np.array(want)
    climbed = lemmas._ratio_ascent(*lemmas._padded(pencils))
    assert np.all(climbed >= want - 1e-9 * np.abs(want))
    assert np.all(climbed <= want + 1e-12 * np.abs(want))


def test_rate_identity_witness_catches_a_planted_norm_route_defect(monkeypatch):
    # 1e-6 low passes the exact-gap route (1e-6 * (1 + rho)), so only the witness can object
    exact = linalg.generalized_rate_pair

    def low(a, b):
        pair = exact(a, b)
        return pair._replace(rho_sup=pair.rho_sup * (1.0 - 1e-6))

    monkeypatch.setattr(lemmas.linalg, "generalized_rate_pair", low)
    result = lemmas.check_rate_identity(trials=40, seed=0)
    assert len(result.failures) == 40
    for f in result.failures:
        assert f["searched_sup"] > f["norm_route"]
        # the record alone replays the witness, bit for bit
        a, b, start = (np.array(f[key]) for key in ("a", "b", "start"))
        rows = lemmas._padded([(a, b, start), (a, -b, start)])
        assert lemmas._ratio_ascent(*rows).max() == f["searched_sup"]


def test_rate_identity_witness_catches_a_high_sup_from_every_eigensolver(monkeypatch):
    # every eigensolver and the norm route agree on a sup 1e-5 (1 + rho) too high, so the
    # exact-gap check passes. The witness still objects: its value is the Rayleigh quotient
    # v'Bv / v'Av of A and B, and eigh only proposes the direction v it climbs along.
    exact_eigvals, exact_eigh = np.linalg.eigvals, np.linalg.eigh

    def inflated(lam):
        rho = np.max(np.abs(lam), axis=-1, keepdims=True)
        return lam * (1.0 + 1e-5 * (1.0 + rho) / rho)

    def high(a, b):
        rho = np.max(np.abs(exact_eigvals(np.linalg.inv(a) @ b)), axis=-1)
        return linalg.RatePair(0.0, rho + 1e-5 * (1.0 + rho))

    def inflated_eigh(m):
        lam, vec = exact_eigh(m)
        return inflated(lam), vec

    monkeypatch.setattr(lemmas.linalg, "generalized_rate_pair", high)
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: inflated(exact_eigvals(m)))
    monkeypatch.setattr(np.linalg, "eigh", inflated_eigh)
    result = lemmas.check_rate_identity(trials=40, seed=0)
    assert len(result.failures) == 40
    for f in result.failures:
        assert max(abs(f["rho_ab"] - f["norm_route"]), abs(f["rho_ba"] - f["norm_route"])) <= 1e-12
        assert f["norm_route"] - f["searched_sup"] > 1e-6 * (1.0 + f["norm_route"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ratio_ascent_stops_at_step_zero(monkeypatch):
    rng = CounterRNG(12)
    # d = 1 and extreme eigenvectors of a diagonal pencil: the gradient, and so u, is 0
    pencils = [(_random_spd(rng, 1), _random_symmetric(rng, 1), rng.gaussian(1))
               for _ in range(6)]
    a, b = np.diag([0.5, 2.0, 1.0]), np.diag([0.9, -1.2, 0.1])
    pencils += [(a, b, np.eye(3)[0]), (a, b, -np.eye(3)[1]), (a, b, 3.0 * np.eye(3)[1])]
    stacks = lemmas._padded(pencils)
    climbed = lemmas._ratio_ascent(*stacks)
    monkeypatch.setattr(lemmas, "ASCENT_STEPS", 0)
    np.testing.assert_array_equal(climbed, lemmas._ratio_ascent(*stacks))
    np.testing.assert_allclose(climbed[-3:], [1.8, -0.6, -0.6], rtol=1e-15)


def test_ratio_ascent_reads_no_eigenvalue_from_eigh(monkeypatch):
    # eigh only proposes the Ritz direction: inflated eigenvalues change no bit
    stacks = lemmas._padded(_oracle_pencils())
    climbed = lemmas._ratio_ascent(*stacks)
    exact_eigh = np.linalg.eigh

    def inflated(m):
        lam, vec = exact_eigh(m)
        return 2.0 * lam + 1.0, vec

    monkeypatch.setattr(np.linalg, "eigh", inflated)
    assert lemmas._ratio_ascent(*stacks).tobytes() == climbed.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ratio_ascent_never_passes_the_top_on_wrong_directions(monkeypatch):
    # eigh's columns reversed propose the bottom Ritz vector: a row may stall, but its
    # value is a Rayleigh quotient of A and B, so it never passes the pencil's top
    pencils = _oracle_pencils()
    want = _tops(pencils)
    exact_eigh = np.linalg.eigh

    def reversed_columns(m):
        lam, vec = exact_eigh(m)
        return lam[..., ::-1], vec[..., ::-1]

    monkeypatch.setattr(np.linalg, "eigh", reversed_columns)
    climbed = lemmas._ratio_ascent(*lemmas._padded(pencils))
    assert np.all(climbed <= want + 1e-12 * np.abs(want))
    assert np.mean(climbed < want - 1e-3 * np.abs(want)) > 0.5


_EXACT = {name: getattr(linalg, name)
          for name in ("spectral_norm", "symmetrize", "generalized_rate_pair", "eigh")}


def _shrunk_norm(m):
    return 0.5 * _EXACT["spectral_norm"](m)


def _scaled_symmetrize(m):
    return 1.05 * _EXACT["symmetrize"](m)


def _truncated_pair(a, b):
    pair = _EXACT["generalized_rate_pair"](a, b)
    return pair._replace(rho_sup=np.floor(pair.rho_sup * 1e3) / 1e3)


def _inflated_eigh(s):
    lam, vec = _EXACT["eigh"](s)
    return linalg.Spectrum(lam * (1.0 + 1e-6), vec)


def _domination_is_the_plant(f):
    a, b, y = (np.array(f[k]) for k in ("a", "b", "y"))
    r = linalg.inv_sqrt(a)
    rho_norm_y = _EXACT["spectral_norm"](r @ b @ r) * float(np.sqrt(y @ a @ y))
    return f["rho_norm_y"] + 1e-9 < f["norm_x"] <= rho_norm_y + 1e-9


def _norm_perturbation_is_the_plant(f):
    # S is 1.05 (S* + M): far outside the hypothesis |S - S*| < delta
    gap = np.array(f["s"]) - np.array(f["s_star"])
    return f["eps"] == 0.01 and np.linalg.norm(gap, 2) > f["delta"]


def _rate_perturbation_is_the_plant(f):
    a, b, m, n, t = (np.array(f[k]) for k in ("a", "b", "m", "n", "scale"))
    pair = _EXACT["generalized_rate_pair"]
    dev = abs(pair(a + t * m, b + t * n).rho_sup - pair(a, b).rho_sup)
    return f["deviation"] > f["envelope"] + 1e-9 >= dev


def _eigh_reconstruction_is_the_plant(f):
    s = np.array(f["s"])
    lam, vec = _EXACT["eigh"](s)
    exact_residual = float(np.max(np.abs(s @ vec - vec * lam)))
    return f["ortho"] <= 1e-10 and f["residual"] > 1e-9 > exact_residual


def _per_trial(name, stream, trials, seed):
    """Each trial's `FIELDS` draws for suite `name` on stream (seed, stream), in trial order,
    taken one trial at a time out of `lemmas._stacks`."""
    inputs = [None] * trials
    for idx, stack in lemmas._stacks(CounterRNG((seed, stream)), trials, lemmas.FIELDS[name]):
        for k, i in enumerate(idx):
            inputs[i] = [x[k] for x in stack]
    return inputs


# One-trial-at-a-time references: each suite's records, every trial computed alone with
# whatever `linalg` holds at the call


def _domination_one_at_a_time(trials, seed):
    # y flipped where x'By < 0, x scaled onto x'Ax = x'By, then |x|_A <= rho |y|_A
    found = []
    for g, u, b, x, y in _per_trial("domination", 2, trials, seed):
        a = lemmas._spd(g, u)
        xby = x @ b @ y
        if xby < 0:
            y, xby = -y, -xby
        x = x * (xby / (x @ a @ x))
        r = linalg.inv_sqrt(a)
        rho = linalg.spectral_norm(r @ b @ r)
        nx, ny = np.sqrt(x @ a @ x), np.sqrt(y @ a @ y)
        if nx > rho * ny + 1e-9:
            found.append({"a": a.tolist(), "b": b.tolist(), "x": x.tolist(), "y": y.tolist(),
                          "norm_x": nx, "rho_norm_y": rho * ny})
    return found


def _norm_perturbation_one_at_a_time(trials, seed):
    # per eps, M scaled to 0.999 delta: |x|_S* within (1 +- eps) |x|_S, S = S* + M, on 100 x
    found = []
    for g, u, *pairs in _per_trial("norm_perturbation", 3, trials, seed):
        s_star = lemmas._spd(g, u)
        for eps, m, xs in zip((0.5, 0.1, 0.01), pairs[::2], pairs[1::2]):
            delta = eps * linalg.eigh(s_star).eigenvalues[0] / 2.0
            m = linalg.symmetrize(m)
            m = m * (delta * 0.999 / max(linalg.spectral_norm(m), 1e-300))
            s = linalg.symmetrize(s_star + m)
            ns, nstar = (np.sqrt(np.einsum("ij,ij->i", xs @ t, xs)) for t in (s, s_star))
            if not np.all((nstar >= (1 - eps) * ns - 1e-12) & (nstar <= (1 + eps) * ns + 1e-12)):
                found.append({"s_star": s_star.tolist(), "s": s.tolist(), "eps": eps,
                              "delta": delta})
    return found


def _rate_perturbation_one_at_a_time(trials, seed):
    # per scale t: |rho(A + tM, B + tN) - rho(A, B)| <= (t + rho t) / (lambda_min(A) - t)
    found = []
    for g, u, b, m, n in _per_trial("rate_perturbation", 4, trials, seed):
        a, b = lemmas._spd(g, u, (0.5, 2.0)), linalg.symmetrize(b)
        base = linalg.generalized_rate_pair(a, b).rho_sup
        lam_min = linalg.eigh(a).eigenvalues[0]
        m, n = (x / max(linalg.spectral_norm(x), 1e-300) for x in map(linalg.symmetrize, (m, n)))
        for t in (1e-2, 1e-3, 1e-4):
            dev = abs(linalg.generalized_rate_pair(a + t * m, b + t * n).rho_sup - base)
            envelope = (t + base * t) / (lam_min - t)
            if dev > envelope + 1e-9:
                found.append({"a": a.tolist(), "b": b.tolist(), "m": m.tolist(), "n": n.tolist(),
                              "scale": t, "deviation": dev, "envelope": envelope})
    return found


def _eigh_reconstruction_one_at_a_time(trials, seed):
    # eigh of S = sym(G) exp(2 g) reconstructs S, is orthonormal, solves S v = lam v, ascends
    found = []
    for g, scale in _per_trial("eigh_reconstruction", 5, trials, seed):
        s = linalg.symmetrize(g) * np.exp(2.0 * scale)
        lam, vec = linalg.eigh(s)
        recon = np.max(np.abs((vec * lam) @ vec.T - s))
        ortho = np.max(np.abs(vec.T @ vec - np.eye(len(s))))
        resid = np.max(np.abs(s @ vec - vec * lam))
        if not (recon <= 1e-9 * (1.0 + np.max(np.abs(s))) and ortho <= 1e-10
                and resid <= 1e-9 * (1.0 + np.max(np.abs(lam))) and np.all(np.diff(lam) >= 0)):
            found.append({"s": s.tolist(), "ortho": ortho, "residual": resid})
    return found


@pytest.mark.parametrize("suite, target, plant, is_the_plant, count, reference", [
    (lemmas.check_domination, "spectral_norm", _shrunk_norm, _domination_is_the_plant, 6,
     _domination_one_at_a_time),
    (lemmas.check_norm_perturbation, "symmetrize", _scaled_symmetrize,
     _norm_perturbation_is_the_plant, 20, _norm_perturbation_one_at_a_time),
    (lemmas.check_rate_perturbation, "generalized_rate_pair", _truncated_pair,
     _rate_perturbation_is_the_plant, 2, _rate_perturbation_one_at_a_time),
    (lemmas.check_eigh_reconstruction, "eigh", _inflated_eigh, _eigh_reconstruction_is_the_plant,
     20, _eigh_reconstruction_one_at_a_time),
], ids=["domination", "norm_perturbation", "rate_perturbation", "eigh_reconstruction"])
def test_each_suite_records_a_planted_defect(monkeypatch, suite, target, plant, is_the_plant,
                                             count, reference):
    """A planted linalg defect yields failure records: each violates the suite's bound,
    and exact linalg on the record's own fields shows that the plant, not the lemma, broke it.
    The records are bit for bit those of the suite's one-trial-at-a-time reference run with
    the same plant, so a suite that reorders, drops or re-rounds a record fails."""
    monkeypatch.setattr(linalg, target, plant)
    result = suite(trials=20, seed=0)
    want = report.dumps(reference(20, 0))
    monkeypatch.undo()
    assert not result.passed and len(result.failures) == count
    assert all(is_the_plant(f) for f in result.failures)
    assert report.dumps(result.failures) == want
