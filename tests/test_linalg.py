"""Eigensolver, inverse square root, spectral norm and the rate pair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surro import linalg


def test_eigh_diagonal_is_sorted_permutation():
    lam, vec = linalg.eigh(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(lam, [1.0, 3.0])
    # eigenvectors are signed standard basis vectors
    np.testing.assert_allclose(np.abs(vec), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_eigh_two_by_two_characteristic_roots():
    # roots of t^2 - 4t + 3 computed from the quadratic formula
    tr, det = 4.0, 3.0
    disc = np.sqrt(tr**2 - 4 * det)
    expected = sorted([(tr - disc) / 2, (tr + disc) / 2])
    lam, _ = linalg.eigh([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(lam, expected, atol=1e-12)


def test_eigh_identity():
    lam, vec = linalg.eigh(np.eye(4))
    np.testing.assert_allclose(lam, np.ones(4))
    np.testing.assert_allclose(vec.T @ vec, np.eye(4), atol=1e-12)


def test_eigh_matches_lapack_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = rng.integers(1, 9)
        s = linalg.symmetrize(rng.normal(size=(d, d)))
        lam, _ = linalg.eigh(s)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(s), atol=1e-9 * (1 + np.abs(lam).max()))


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        (5, 5),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
)
def test_eigh_reconstruction_property(m):
    s = linalg.symmetrize(m)
    lam, vec = linalg.eigh(s)
    scale = 1.0 + float(np.abs(s).max())
    assert np.max(np.abs((vec * lam) @ vec.T - s)) <= 1e-9 * scale
    assert np.max(np.abs(vec.T @ vec - np.eye(5))) <= 1e-10
    for i in range(5):
        resid = np.linalg.norm(s @ vec[:, i] - lam[i] * vec[:, i])
        assert resid <= 1e-9 * (1 + abs(lam[i]))
    assert np.all(np.diff(lam) >= 0)


def test_inv_sqrt_identity_and_diagonal():
    np.testing.assert_allclose(linalg.inv_sqrt(np.eye(3)), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(
        linalg.inv_sqrt(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]), atol=1e-12
    )


def test_inv_sqrt_self_consistency_on_random_spd():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = rng.integers(1, 9)
        g = rng.normal(size=(d, d))
        s = linalg.symmetrize(g @ g.T + 0.1 * np.eye(d))
        r = linalg.inv_sqrt(s)
        np.testing.assert_allclose(r @ s @ r, np.eye(d), atol=1e-9)
        assert linalg.is_positive_definite(r)[0]


def test_inv_sqrt_rejects_indefinite():
    with pytest.raises(linalg.NotPositiveDefinite) as err:
        linalg.inv_sqrt(np.diag([1.0, -2.0]))
    assert err.value.min_eigenvalue == pytest.approx(-2.0)
    with pytest.raises(linalg.NotPositiveDefinite):
        linalg.inv_sqrt(np.zeros((2, 2)))


def test_spectral_norm_basics():
    assert linalg.spectral_norm(np.zeros((3, 3))) == 0.0
    assert linalg.spectral_norm(np.diag([-2.0, 1.0])) == pytest.approx(2.0)


def test_spectral_norm_sampling_oracle():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4))
    norm = linalg.spectral_norm(m)
    u = rng.normal(size=(10_000, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    sampled = np.max(np.linalg.norm(u @ m.T, axis=1))
    assert sampled <= norm * (1 + 1e-12)
    assert norm - sampled <= 1e-3 * norm


def test_rate_pair_diagonal_and_zero():
    pair = linalg.generalized_rate_pair(np.eye(2), np.diag([0.2, -0.5]))
    assert pair == pytest.approx((0.2, 0.5))
    pair = linalg.generalized_rate_pair(np.eye(2), np.zeros((2, 2)))
    assert pair == (0.0, 0.0)


def test_rate_pair_direction_sampling_oracle_definite_b():
    # with definite B the absolute Rayleigh quotient never vanishes, so both
    # extremes are reachable by direction sampling
    rng = np.random.default_rng(5)
    g = rng.normal(size=(3, 3))
    a = linalg.symmetrize(g @ g.T + 0.5 * np.eye(3))
    h = rng.normal(size=(3, 3))
    b = -linalg.symmetrize(h @ h.T + 0.2 * np.eye(3))
    pair = linalg.generalized_rate_pair(a, b)
    v = rng.normal(size=(100_000, 3))
    ratios = np.abs(np.einsum("ij,jk,ik->i", v, b, v)) / np.einsum("ij,jk,ik->i", v, a, v)
    assert np.max(ratios) <= pair.rho_sup * (1 + 1e-9)
    assert pair.rho_sup - np.max(ratios) <= 1e-2 * (1 + pair.rho_sup)
    assert pair.rho_inf <= np.min(ratios) + 1e-9
    assert np.min(ratios) - pair.rho_inf <= 1e-2 * (1 + pair.rho_inf)


def test_rate_pair_indefinite_b_uses_spectral_lower_rate():
    # when B is indefinite the directional |quotient| dips to zero, while the
    # lower rate keeps the smallest absolute eigenvalue (the quantity that
    # actually lower-bounds the iteration decay)
    a = np.eye(2)
    b = np.diag([0.6, -0.6])
    pair = linalg.generalized_rate_pair(a, b)
    assert pair == pytest.approx((0.6, 0.6))
    v = np.array([[1.0, 1.0]])  # direction where the form vanishes
    ratio = abs(v[0] @ b @ v[0]) / (v[0] @ a @ v[0])
    assert ratio < 1e-12 < pair.rho_inf


def test_rate_pair_shape_mismatch():
    with pytest.raises(linalg.DimensionMismatch):
        linalg.generalized_rate_pair(np.eye(2), np.eye(3))


def test_rate_pair_invariant_ordering():
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = rng.integers(1, 9)
        g = rng.normal(size=(d, d))
        a = linalg.symmetrize(g @ g.T + 0.2 * np.eye(d))
        b = linalg.symmetrize(rng.normal(size=(d, d)))
        lo, hi = linalg.generalized_rate_pair(a, b)
        assert 0 <= lo <= hi


def test_symmetrize_and_asymmetry():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = linalg.symmetrize(m)
    np.testing.assert_allclose(s, [[1.0, 1.0], [1.0, 1.0]])
    assert linalg.asymmetry(m) == pytest.approx(2.0)


@pytest.mark.parametrize("d", [33, 64])
def test_large_dimensions_decompose(d):
    # same tolerances as lemmas.check_eigh_reconstruction
    rng = np.random.default_rng(d)
    for s in (np.eye(d), linalg.symmetrize(rng.normal(size=(d, d)))):
        lam, vec = linalg.eigh(s)
        scale = 1.0 + float(np.max(np.abs(s)))
        assert np.max(np.abs((vec * lam) @ vec.T - s)) <= 1e-9 * scale
        assert np.max(np.abs(vec.T @ vec - np.eye(d))) <= 1e-10
        assert np.max(np.abs(s @ vec - vec * lam)) <= 1e-9 * (1.0 + np.max(np.abs(lam)))
        assert np.all(np.diff(lam) >= 0)


def test_rate_pair_matches_general_eigvals_at_d40():
    rng = np.random.default_rng(40)
    g = rng.normal(size=(40, 40))
    a = linalg.symmetrize(g @ g.T + 40.0 * np.eye(40))
    b = linalg.symmetrize(rng.normal(size=(40, 40)))
    lo, hi = linalg.generalized_rate_pair(a, b)
    mods = np.abs(np.linalg.eigvals(np.linalg.inv(a) @ b))
    assert hi == pytest.approx(float(mods.max()), rel=1e-10)
    assert lo == pytest.approx(float(mods.min()), rel=1e-6, abs=1e-12)
