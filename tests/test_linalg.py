"""Eigensolver, inverse square root, spectral norm and the rate pair."""

import math
import struct

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


@pytest.mark.parametrize("lam_min, pd", [(3e-12, True), (1e-12, False), (0.0, False)])
def test_pd_threshold_is_shared_by_inv_sqrt_and_is_positive_definite(lam_min, pd):
    # d = 2: the threshold is lam_min > 2 * 1e-12 * |lam|_max
    s = np.diag([1.0, lam_min])
    assert linalg.is_positive_definite(s) == (pd, lam_min)
    if pd:
        np.testing.assert_allclose(linalg.inv_sqrt(s), np.diag([1.0, lam_min**-0.5]))
    else:
        with pytest.raises(linalg.NotPositiveDefinite):
            linalg.inv_sqrt(s)


def test_whitened_eigenvalues_match_the_pencil_eigenvalues():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4))
    a = linalg.symmetrize(g @ g.T + 0.5 * np.eye(4))
    b = linalg.symmetrize(rng.normal(size=(4, 4)))
    expected = np.sort(np.linalg.eigvals(np.linalg.solve(a, b)).real)
    np.testing.assert_allclose(linalg.whitened_eigenvalues(a, b), expected, atol=1e-10)
    pair = linalg.generalized_rate_pair(a, b)
    assert pair.rho_sup == pytest.approx(np.max(np.abs(expected)), abs=1e-10)


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
    with pytest.raises(linalg.LinalgError, match=r"shape mismatch \(2, 2\) vs \(3, 3\)"):
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


def _same_bits(x, y) -> bool:
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_symmetrizing_once_is_bitwise_the_old_composition(scale):
    # eigh symmetrizes its input, and 0.5 (S + S') returns a finite symmetric S unchanged,
    # so the compositions below, which symmetrized before calling eigh, agree to the bit
    rng = np.random.default_rng(150)
    for d in range(1, 9):
        for _ in range(10):
            g = rng.normal(size=(d, d))
            a = (g @ g.T + 0.5 * np.eye(d) + 1e-3 * rng.normal(size=(d, d))) * scale
            b = rng.normal(size=(d, d)) * scale
            gram = linalg.eigh(linalg.symmetrize(b.T @ b)).eigenvalues
            assert _same_bits(linalg.spectral_norm(b), np.sqrt(max(gram[-1], 0.0)))
            r = linalg.inv_sqrt(linalg.symmetrize(a))
            lam = linalg.eigh(linalg.symmetrize(r @ linalg.symmetrize(b) @ r)).eigenvalues
            assert _same_bits(linalg.whitened_eigenvalues(a, b), lam)
            hi, lo = float(np.abs(lam).max()), float(np.abs(lam).min())
            lo = 0.0 if lo < linalg.SINGULAR_TOL * max(1.0, hi) else lo
            assert _same_bits(linalg.generalized_rate_pair(a, b), (lo, hi))


@pytest.mark.parametrize("d", range(1, 9))
def test_a_stack_is_bitwise_its_matrices_one_at_a_time(d):
    rng = np.random.default_rng(800 + d)
    g = rng.normal(size=(500, d, d))
    a = g @ np.swapaxes(g, -1, -2) + 0.5 * np.eye(d)
    b = rng.normal(size=(500, d, d))
    b[0] = 0.0  # rho_inf snaps to 0 in one member only
    lam, vec = linalg.eigh(b)
    assert _same_bits(lam, [linalg.eigh(m).eigenvalues for m in b])
    assert _same_bits(vec, [linalg.eigh(m).eigenvectors for m in b])
    assert _same_bits(linalg.inv_sqrt(a), [linalg.inv_sqrt(m) for m in a])
    assert _same_bits(linalg.spectral_norm(b), [linalg.spectral_norm(m) for m in b])
    pairs = [linalg.generalized_rate_pair(x, y) for x, y in zip(a, b)]
    assert pairs[0].rho_inf == 0.0 and all(type(v) is float for v in pairs[0])
    assert _same_bits(np.stack(linalg.generalized_rate_pair(a, b), axis=-1), pairs)
    # two leading axes are the same stack
    grid = (20, 25, d, d)
    assert _same_bits(linalg.eigh(b.reshape(grid)).eigenvalues.reshape(500, d), lam)
    assert _same_bits(linalg.generalized_rate_pair(a.reshape(grid), b.reshape(grid)).rho_sup,
                      [p.rho_sup for p in pairs])


def _raised(fn, *args) -> Exception:
    with pytest.raises(linalg.LinalgError) as err:
        fn(*args)
    return err.value


def test_a_stack_raises_what_its_bad_member_raises_alone():
    a = np.repeat(np.eye(3)[None], 5, 0)
    a[2] = np.diag([1.0, -2.0, 3.0])
    a[4] = np.diag([1.0, -5.0, 3.0])
    b = np.repeat(np.diag([0.5, 0.25, 0.1])[None], 5, 0)
    for fn, args, alone in [(linalg.inv_sqrt, (a,), (a[2],)),
                            (linalg.generalized_rate_pair, (a, b), (a[2], b[2]))]:
        stacked, single = _raised(fn, *args), _raised(fn, *alone)
        assert type(stacked) is type(single) is linalg.NotPositiveDefinite
        assert stacked.min_eigenvalue == single.min_eigenvalue == -2.0
        assert str(stacked) == str(single)
    a[2], a[4] = np.eye(3), np.eye(3)
    b[3, 1, 2] = np.inf
    for fn, args, alone in [(linalg.eigh, (b,), (b[3],)), (linalg.inv_sqrt, (b,), (b[3],)),
                            (linalg.spectral_norm, (b,), (b[3],)),
                            (linalg.generalized_rate_pair, (a, b), (a[3], b[3])),
                            (linalg.generalized_rate_pair, (b, a), (b[3], a[3]))]:
        stacked, single = _raised(fn, *args), _raised(fn, *alone)
        assert type(stacked) is type(single) is linalg.LinalgError
        assert str(stacked) == str(single) and "non-finite entries" in str(single)
    ragged = np.zeros((5, 3, 2))
    for fn, arity in [(linalg.symmetrize, 1), (linalg.eigh, 1), (linalg.inv_sqrt, 1),
                      (linalg.generalized_rate_pair, 2)]:
        for m in (ragged, ragged[0]):
            err = _raised(fn, *[m] * arity)
            assert type(err) is linalg.LinalgError and "expected a square matrix" in str(err)
    for fn, args, text in [(linalg.generalized_rate_pair, (a, a[:4]), "shape mismatch"),
                           (linalg.spectral_norm, (b[0, 0],), "expected a matrix")]:
        err = _raised(fn, *args)
        assert type(err) is linalg.LinalgError and text in str(err)


# per-point vectors: every special value a check must answer for, among arbitrary floats
_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
            1e308, -1e308]
_point_vectors = st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats()), min_size=1,
                         max_size=8).map(lambda xs: np.array(xs, dtype=float))


def _same_float(a: float, b: float) -> bool:
    """Bitwise equal, or both NaN (whose payloads no check reads)."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("d", a) == struct.pack("d", b)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_point_vectors)
def test_per_point_checks_give_the_numpy_reductions_answers(v):
    assert linalg.all_finite(v) is bool(np.isfinite(v).all())
    assert _same_float(linalg.max_abs(v), float(np.abs(v).max()))
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_float(float(v.dot(v)), float(v @ v))
    for i in range(v.size + 1):  # a NaN in any place, not only the first
        with_nan = np.insert(v, i, math.nan)
        assert math.isnan(linalg.max_abs(with_nan)) and not linalg.all_finite(with_nan)
