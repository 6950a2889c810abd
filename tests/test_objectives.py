"""Objective derivative consistency and declared smoothness constants."""

import numpy as np
import pytest

from surro import linalg
from surro.errors import SurroError
from surro.objectives import (
    CustomObjective,
    Quartic1D,
    QuadraticForm,
    ShiftedQuadratic,
    SmoothLogSumExp,
)
from surro.rng import CounterRNG

CASES = [
    QuadraticForm(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.1])),
    ShiftedQuadratic(np.array([1.0, -2.0, 0.5])),
    SmoothLogSumExp(3, scale=0.7),
    Quartic1D(),
    CustomObjective(2, lambda x: float(np.cosh(x[0]) + x[0] * x[1] ** 2),
                    lambda x: np.array([np.sinh(x[0]) + x[1] ** 2, 2.0 * x[0] * x[1]]),
                    lambda x: np.array([[np.cosh(x[0]), 2.0 * x[1]], [2.0 * x[1], 2.0 * x[0]]])),
]


def _fd_grad(f, x, h=1e-6):
    return np.array(
        [
            (f.value(x + h * e) - f.value(x - h * e)) / (2 * h)
            for e in np.eye(x.size)
        ]
    )


def _fd_hess(f, x, h=1e-5):
    return np.column_stack(
        [(f.grad(x + h * e) - f.grad(x - h * e)) / (2 * h) for e in np.eye(x.size)]
    )


@pytest.mark.parametrize("f", CASES, ids=lambda f: type(f).__name__)
def test_derivatives_match_finite_differences(f):
    rng = CounterRNG(20)
    for _ in range(20):
        x = rng.gaussian(f.q)
        np.testing.assert_allclose(f.grad(x), _fd_grad(f, x), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(f.hess(x), _fd_hess(f, x), rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize(
    "f",
    [c for c in CASES if c.beta is not None],
    ids=lambda f: type(f).__name__,
)
def test_declared_smoothness_bounds_hessian(f):
    rng = CounterRNG(21)
    for _ in range(100):
        x = rng.gaussian(f.q)
        assert linalg.spectral_norm(f.hess(x)) <= f.beta + 1e-9


def test_quadratic_form_validates_positive_definiteness():
    with pytest.raises(SurroError,
                       match=r"H must be positive-definite \(min eigenvalue -1\.000e\+00\)"):
        QuadraticForm(np.diag([1.0, -1.0]))


def test_quadratic_form_minimizer():
    f = QuadraticForm(np.diag([2.0, 4.0]), np.array([2.0, -4.0]))
    np.testing.assert_allclose(f.minimizer(), [-1.0, 1.0])
    np.testing.assert_allclose(f.grad(f.minimizer()), 0.0, atol=1e-12)


def test_quartic_hessian_always_invertible():
    f = Quartic1D()
    for x in np.linspace(-3, 3, 25):
        assert f.hess(np.array([x]))[0, 0] >= 1.0
