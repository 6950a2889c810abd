"""Reproducible random streams for experiments and sweeps.

Uniform variates come from the Philox 4x64 counter-based bit generator (keyed
through numpy's SeedSequence, so identical seeds give identical streams on
every platform).  Gaussian variates are produced from uniform pairs by the
Box-Muller transform rather than a rejection sampler, which keeps the mapping
seed -> stream fixed across library versions.
"""

from __future__ import annotations

import numpy as np


class CounterRNG:
    """Deterministic stream of uniforms and Box-Muller gaussians."""

    def __init__(self, seed):
        self._bits = np.random.Generator(np.random.Philox(seed))

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return self._bits.random(int(n))

    def gaussian(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs."""
        m = (int(n) + 1) // 2
        u1 = 1.0 - self.uniform(m)  # in (0, 1], keeps the log finite
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.empty(2 * m)
        np.multiply(r, np.cos(angle), out=z[:m])
        np.multiply(r, np.sin(angle), out=z[m:])
        return z[: int(n)]
