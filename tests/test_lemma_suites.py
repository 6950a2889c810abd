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


def test_ratio_ascent_matches_eigvals_oracle_padded_or_not(monkeypatch):
    rng = CounterRNG(11)
    pencils, want = [], []
    for d in range(1, 9):
        for _ in range(10):
            a = lemmas.random_spd(rng, d)
            b = lemmas.random_symmetric(rng, d)
            lam = np.linalg.eigvals(np.linalg.inv(a) @ b).real
            for v0 in rng.gaussian(6 * d).reshape(6, d):
                pencils.append((a, b, v0))
                want.append(lam.max() if v0 @ b @ v0 >= 0 else -lam.min())
    want = np.array(want)
    dims = np.array([len(v0) for _, _, v0 in pencils])
    unpadded = np.empty(len(pencils))
    for d in range(1, 9):
        rows = [pencils[i] for i in np.flatnonzero(dims == d)]
        unpadded[dims == d] = lemmas._ratio_ascent(*(np.array(x) for x in zip(*rows)))
    # within ASCENT_STEPS a small top gap can leave a row short, never past the extreme
    assert np.all(unpadded <= want * (1.0 + 1e-12))
    assert np.all(unpadded >= want * (1.0 - 1e-2))
    padded = lemmas._padded(pencils)
    np.testing.assert_allclose(lemmas._ratio_ascent(*padded), unpadded, rtol=1e-12, atol=0)
    monkeypatch.setattr(lemmas, "ASCENT_STEPS", 2000)
    np.testing.assert_allclose(lemmas._ratio_ascent(*padded), want, rtol=1e-6, atol=0)


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
