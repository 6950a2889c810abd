"""Objective functions with value/gradient/Hessian callables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import SurroError


class Objective:
    """Smooth objective; hess must return a q x q array."""

    q: int
    beta: float | None = None  # declared smoothness constant, when known

    def value(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def hess(self, x) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class QuadraticForm(Objective):
    """f(x) = x'Hx / 2 + c'x with H symmetric positive-definite."""

    h: np.ndarray
    c: np.ndarray | None = None

    def __post_init__(self):
        h = linalg.symmetrize(self.h)
        ok, min_eig = linalg.is_positive_definite(h)
        if not ok:
            raise SurroError(f"H must be positive-definite (min eigenvalue {min_eig:.3e})")
        c = np.zeros(h.shape[0]) if self.c is None else np.asarray(self.c, dtype=float)
        if c.shape != (h.shape[0],):
            raise SurroError("c must match the dimension of H")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "c", c)

    @property
    def q(self):
        return self.h.shape[0]

    @property
    def beta(self):
        return float(linalg.eigh(self.h).eigenvalues[-1])

    def value(self, x):
        v = np.asarray(x, dtype=float)
        return 0.5 * float(v @ self.h @ v) + float(self.c @ v)

    def grad(self, x):
        v = np.asarray(x, dtype=float)
        return self.h @ v + self.c

    def hess(self, x):
        return self.h.copy()

    def minimizer(self) -> np.ndarray:
        return np.linalg.solve(self.h, -self.c)


@dataclass(frozen=True)
class ShiftedQuadratic(Objective):
    """f(x) = |x - target|^2 / 2; the simplest smooth objective with a known minimizer."""

    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", np.atleast_1d(np.asarray(self.target, dtype=float)))

    @property
    def q(self):
        return self.target.shape[0]

    beta = 1.0

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.target
        return 0.5 * float(d @ d)

    def grad(self, x):
        return np.asarray(x, dtype=float) - self.target

    def hess(self, x):
        return np.eye(self.q)


@dataclass(frozen=True)
class SmoothLogSumExp(Objective):
    """f(x) = scale * log sum exp(x_i / scale); smoothness constant 1/scale."""

    q: int
    scale: float = 1.0

    def __post_init__(self):
        if not self.q >= 1:
            raise SurroError("dimension must be >= 1")
        if not self.scale > 0:
            raise SurroError("scale must be positive")

    @property
    def beta(self):
        return 1.0 / self.scale

    def _p(self, x):
        v = np.asarray(x, dtype=float) / self.scale
        v = v - np.max(v)
        e = np.exp(v)
        return e / np.sum(e)

    def value(self, x):
        v = np.asarray(x, dtype=float) / self.scale
        m = float(np.max(v))
        return self.scale * (m + float(np.log(np.sum(np.exp(v - m)))))

    def grad(self, x):
        return self._p(x)

    def hess(self, x):
        p = self._p(x)
        return (np.diag(p) - np.outer(p, p)) / self.scale


class Quartic1D(Objective):
    """f(x) = x^4/4 + x^2/2 on the line; Hessian 3x^2 + 1 is always invertible."""

    q = 1
    beta = None

    def value(self, x):
        v = float(np.atleast_1d(x)[0])
        return v**4 / 4.0 + v**2 / 2.0

    def grad(self, x):
        v = float(np.atleast_1d(x)[0])
        return np.array([v**3 + v])

    def hess(self, x):
        v = float(np.atleast_1d(x)[0])
        return np.array([[3.0 * v**2 + 1.0]])


@dataclass(frozen=True)
class CustomObjective(Objective):
    q: int
    fun: Callable
    gradient: Callable
    hessian: Callable | None = None
    beta: float | None = None

    def value(self, x):
        return float(self.fun(np.asarray(x, dtype=float)))

    def grad(self, x):
        return np.atleast_1d(np.asarray(self.gradient(np.asarray(x, dtype=float)), dtype=float))

    def hess(self, x):
        if self.hessian is None:
            raise SurroError("no Hessian available for this objective")
        return np.atleast_2d(np.asarray(self.hessian(np.asarray(x, dtype=float)), dtype=float))
