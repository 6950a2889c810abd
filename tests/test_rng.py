"""Counter-based streams: the Box-Muller draw keeps its bits and its stream position."""

import numpy as np
import pytest

from surro.rng import CounterRNG, box_muller


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


@pytest.mark.parametrize("seed", [0, 1, (7, 400), (3, 6400)])
def test_mixed_draws_follow_the_two_call_stream(seed):
    """Interleaved gaussian and uniform draws of every parity keep their bits and positions."""
    drawn, reference, sizes = CounterRNG(seed), CounterRNG(seed), CounterRNG(99)
    for size, kind in zip((sizes.uniform(60) * 200).astype(int), sizes.uniform(60) < 0.8):
        if kind:
            assert drawn.gaussian(size).tobytes() == _box_muller(reference, size).tobytes()
        else:
            assert drawn.uniform(size).tobytes() == reference.uniform(size).tobytes()


@pytest.mark.parametrize("d", range(1, 9))
def test_box_muller_on_gathered_columns_is_gaussian(d):
    """One Box-Muller over the gathered radius, then angle, columns of several gaussian
    draws laid side by side gives each draw's bits: the sizes the lemma suites draw."""
    sizes = (1, d, d * d, 100 * d)
    halves = [(n + 1) // 2 for n in sizes]
    starts = np.cumsum([0] + [2 * m for m in halves])[:-1]
    perm = np.concatenate([np.arange(s, s + m) for s, m in zip(starts, halves)]
                          + [np.arange(s + m, s + 2 * m) for s, m in zip(starts, halves)])
    rows = np.stack([CounterRNG((d, row)).uniform(2 * sum(halves)) for row in range(5)])
    rows[:, perm] = box_muller(rows[:, perm])
    for row in range(5):
        reference = CounterRNG((d, row))
        for s, n in zip(starts, sizes):
            assert rows[row, s:s + n].tobytes() == reference.gaussian(n).tobytes()
