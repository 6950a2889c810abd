"""Counter-based streams: the Box-Muller draw keeps its bits and its stream position."""

import numpy as np
import pytest

from surro.rng import CounterRNG


def _box_muller(rng: CounterRNG, n: int) -> np.ndarray:
    """The reference formula: cos and sin halves joined by concatenate."""
    m = (n + 1) // 2
    u1 = 1.0 - rng.uniform(m)
    u2 = rng.uniform(m)
    r = np.sqrt(-2.0 * np.log(u1))
    return np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 2001, 16000])
def test_gaussian_is_bitwise_the_reference_formula(n):
    drawn, reference = CounterRNG((3, n)), CounterRNG((3, n))
    z = drawn.gaussian(n)
    assert z.shape == (n,) and z.dtype == np.float64
    assert z.tobytes() == _box_muller(reference, n).tobytes()
    # the same number of uniforms was consumed
    assert drawn.uniform(5).tobytes() == reference.uniform(5).tobytes()
