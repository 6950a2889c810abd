"""Sample-size sweeps: determinism, exactness, shrinking deviations."""

import numpy as np
import pytest

from surro.latent import GaussianLatentModel, TwoComponentMixture
from surro.sweep import SweepError, sample_rate_sweep


def test_gaussian_sweep_is_exact_at_every_size():
    model = GaussianLatentModel(1.0, 1.0, theta_star=1.0)
    table = sample_rate_sweep(model, [50, 200], [0, 1, 2])
    assert table.rho_pop == pytest.approx(0.5)
    assert max(r.abs_dev for r in table.rows) <= 1e-6
    # fixed points follow the data even though curvature does not
    hats = {r.theta_hat for r in table.rows}
    assert len(hats) == len(table.rows)


def test_mixture_sweep_rows_and_summary_layout():
    model = TwoComponentMixture(theta_star=1.0)
    table = sample_rate_sweep(model, [100, 400], [0, 1, 2, 3])
    assert [(r.k, r.seed) for r in table.rows] == [
        (k, s) for k in (100, 400) for s in (0, 1, 2, 3)
    ]
    assert len(table.summary) == 2
    for row in table.summary:
        devs = [r.abs_dev for r in table.rows if r.k == row.k]
        assert row.median_abs_dev == pytest.approx(float(np.median(devs)))
        assert row.q90_abs_dev == pytest.approx(float(np.quantile(devs, 0.9)))


def test_mixture_deviations_shrink_with_sample_size():
    model = TwoComponentMixture(theta_star=1.0)
    table = sample_rate_sweep(model, [100, 1600], list(range(8)))
    med = {s.k: s.median_abs_dev for s in table.summary}
    assert med[1600] < med[100]


def test_sweep_is_deterministic():
    model = TwoComponentMixture(theta_star=1.0)
    one = sample_rate_sweep(model, [100, 400], [0, 1, 2])
    two = sample_rate_sweep(model, [100, 400], [0, 1, 2])
    assert one.rows == two.rows
    assert one.summary == two.summary


def test_sweep_argument_validation():
    model = GaussianLatentModel(1.0, 1.0, 0.0)
    with pytest.raises(SweepError):
        sample_rate_sweep(model, [], [0])
    with pytest.raises(SweepError):
        sample_rate_sweep(model, [400, 100], [0])
    with pytest.raises(SweepError):
        sample_rate_sweep(model, [100], [])
