"""Randomized linear-algebra suites: clean runs and replayable streams."""

import numpy as np
import pytest

from surro import lemmas, linalg
from surro.rng import CounterRNG


def test_all_suites_clean_at_reduced_trial_count():
    for result in lemmas.run_all(trials=150, seed=0):
        assert result.passed, f"{result.name}: {result.failures[:1]}"


def test_suites_are_deterministic_in_the_seed():
    a = lemmas.check_rate_identity(trials=25, seed=9)
    b = lemmas.check_rate_identity(trials=25, seed=9)
    assert a.trials == b.trials and a.failures == b.failures


def test_random_spd_is_spd():
    rng = CounterRNG(5)
    for _ in range(50):
        a = lemmas.random_spd(rng, 6)
        assert np.all(np.linalg.eigvalsh(a) > 0)
        np.testing.assert_allclose(a, a.T)


def test_domination_counts_only_valid_hypotheses():
    result = lemmas.check_domination(trials=100, seed=3)
    assert result.trials == 100
    assert result.passed


def test_ratio_ascent_reaches_known_extremes():
    a = np.eye(3)
    b = np.diag([0.9, -0.2, 0.1])
    starts = CounterRNG(6).gaussian(3 * 8).reshape(8, 3)
    positive = np.einsum("ij,jk,ik->i", starts, b, starts) >= 0
    assert positive.any() and not positive.all()
    found = lemmas._ratio_ascent(np.repeat(a[None], 8, 0), np.repeat(b[None], 8, 0), starts)
    np.testing.assert_allclose(found, np.where(positive, 0.9, 0.2), rtol=0, atol=1e-12)


def _branch_extremes(pencils) -> np.ndarray:
    """Each row's branch extreme from np.linalg.eigvals(inv(A) @ B): max, or -min if v0'Bv0 < 0."""
    want = []
    for a, b, v0 in pencils:
        lam = np.linalg.eigvals(np.linalg.inv(a) @ b).real
        want.append(lam.max() if v0 @ b @ v0 >= 0 else -lam.min())
    return np.array(want)


def test_ratio_ascent_matches_eigvals_oracle_padded_or_not():
    rng = CounterRNG(11)
    pencils = []
    for d in range(1, 9):
        for _ in range(10):
            a = lemmas.random_spd(rng, d)
            b = lemmas.random_symmetric(rng, d)
            pencils += [(a, b, v0) for v0 in rng.gaussian(6 * d).reshape(6, d)]
    want = _branch_extremes(pencils)
    dims = np.array([len(v0) for _, _, v0 in pencils])
    unpadded = np.empty(len(pencils))
    for d in range(1, 9):
        rows = [pencils[i] for i in np.flatnonzero(dims == d)]
        unpadded[dims == d] = lemmas._ratio_ascent(*(np.array(x) for x in zip(*rows)))
    # within ASCENT_STEPS every row reaches its branch extreme, and never passes it
    np.testing.assert_allclose(unpadded, want, rtol=1e-9, atol=0)
    assert np.all(unpadded <= want * (1.0 + 1e-12))
    padded = lemmas._ratio_ascent(*lemmas._padded(pencils))
    np.testing.assert_allclose(padded, unpadded, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [0, 1])
def test_rate_identity_witness_rows_reach_the_extreme(monkeypatch, seed):
    # every start row the suite batches, against the eigvals extreme of its padded pencil
    batches = []
    ascent = lemmas._ratio_ascent

    def capture(a, b, v0):
        batches.append((a, b, v0))
        return ascent(a, b, v0)

    monkeypatch.setattr(lemmas, "_ratio_ascent", capture)
    assert lemmas.check_rate_identity(trials=200, seed=seed).passed
    (a, b, v0), = batches
    want = _branch_extremes(zip(a, b, v0))
    climbed = ascent(a, b, v0)
    assert np.max((want - climbed) / want) <= 1e-9
    assert np.max((climbed - want) / want) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ratio_ascent_on_repeated_extremes():
    # both branch extremes are double roots; the first 10 rows stay in span{e1, e3},
    # where every previous iterate lies in span{v, u} and the step falls back to 2x2
    a = np.eye(5)
    b = np.diag([1.0, 1.0, 0.25, -0.5, -0.5])
    starts = CounterRNG(13).gaussian(5 * 40).reshape(40, 5)
    starts[:10, [1, 3, 4]] = 0.0
    positive = np.einsum("ij,jk,ik->i", starts, b, starts) >= 0
    assert positive[:10].all() and not positive.all()
    found = lemmas._ratio_ascent(np.repeat(a[None], 40, 0), np.repeat(b[None], 40, 0), starts)
    np.testing.assert_allclose(found, np.where(positive, 1.0, 0.5), rtol=1e-12, atol=0)


def test_sym3_top_matches_eigvalsh_and_gives_a_null_vector():
    c = np.array([lemmas.random_symmetric(CounterRNG((14, i)), 3) for i in range(200)])
    z = np.stack(lemmas._sym3_top(*c[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]].T), axis=1)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    top = np.linalg.eigvalsh(c)[:, -1]
    np.testing.assert_allclose(np.einsum("ni,nij,nj->n", z, c, z), top, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.einsum("nij,nj->ni", c, z), top[:, None] * z, atol=1e-9)
    # C = 2.5 I: the root is exact, and C - lam I = 0 has no null vector to return
    scalar = np.array([2.5, 0.0, 0.0, 2.5, 0.0, 2.5])[:, None]
    assert np.all(np.array(lemmas._sym3_top(*scalar)) == 0)


def test_rate_identity_witness_catches_a_planted_norm_route_defect(monkeypatch):
    # 1e-6 low passes the exact-gap route (1e-6 * (1 + rho)), so only the witness can object
    exact = linalg.generalized_rate_pair

    def low(a, b):
        pair = exact(a, b)
        return pair._replace(rho_sup=pair.rho_sup * (1.0 - 1e-6))

    monkeypatch.setattr(lemmas.linalg, "generalized_rate_pair", low)
    result = lemmas.check_rate_identity(trials=40, seed=0)
    assert len(result.failures) == 40
    assert all(f["searched_sup"] > f["norm_route"] for f in result.failures)


def test_rate_identity_witness_catches_a_high_sup_from_every_eigensolver(monkeypatch):
    # all three eigensolver routes agree on a sup 1e-5 (1 + rho) too high, so the exact-gap
    # check passes; only the witness, which calls no eigensolver, can object
    exact_pair, exact_eigvals = linalg.generalized_rate_pair, np.linalg.eigvals

    def high(a, b):
        pair = exact_pair(a, b)
        return pair._replace(rho_sup=pair.rho_sup + 1e-5 * (1.0 + pair.rho_sup))

    def inflated(m):
        lam = exact_eigvals(m)
        rho = np.max(np.abs(lam))
        return lam * (1.0 + 1e-5 * (1.0 + rho) / rho)

    monkeypatch.setattr(lemmas.linalg, "generalized_rate_pair", high)
    monkeypatch.setattr(np.linalg, "eigvals", inflated)
    result = lemmas.check_rate_identity(trials=40, seed=0)
    assert len(result.failures) == 40
    for f in result.failures:
        assert max(abs(f["rho_ab"] - f["norm_route"]), abs(f["rho_ba"] - f["norm_route"])) <= 1e-12
        assert f["norm_route"] - f["searched_sup"] > 1e-6 * (1.0 + f["norm_route"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ratio_ascent_stops_at_step_zero_without_eigensolver(monkeypatch):
    rng = CounterRNG(12)
    # d = 1 and extreme eigenvectors of a diagonal pencil: the gradient, and so u, is 0
    pencils = [(lemmas.random_spd(rng, 1), lemmas.random_symmetric(rng, 1), rng.gaussian(1))
               for _ in range(6)]
    a, b = np.diag([0.5, 2.0, 1.0]), np.diag([0.9, -1.2, 0.1])
    pencils += [(a, b, np.eye(3)[0]), (a, b, -np.eye(3)[1]), (a, b, 3.0 * np.eye(3)[1])]

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("the witness called an eigensolver")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_eigensolver)
    stacks = lemmas._padded(pencils)
    climbed = lemmas._ratio_ascent(*stacks)
    monkeypatch.setattr(lemmas, "ASCENT_STEPS", 0)
    np.testing.assert_array_equal(climbed, lemmas._ratio_ascent(*stacks))
    np.testing.assert_allclose(climbed[-3:], [1.8, 0.6, 0.6], rtol=1e-15)
