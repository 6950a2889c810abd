"""Sample-size sweeps: determinism, exactness, shrinking deviations."""

from dataclasses import dataclass

import numpy as np
import pytest

from surro.domains import FullSpace
from surro.errors import SurroError
from surro.latent import GaussianLatentModel, TwoComponentMixture
from surro.rates import RatesError
from surro.surrogate import SurrogateProblem
from surro.sweep import sample_rate_sweep


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
    with pytest.raises(SurroError, match="ks must be nonempty"):
        sample_rate_sweep(model, [], [0])
    with pytest.raises(SurroError, match="ks must be ascending"):
        sample_rate_sweep(model, [400, 100], [0])
    with pytest.raises(SurroError, match="seeds must be nonempty"):
        sample_rate_sweep(model, [100], [])
    # a size or seed that is not an integer >= its least value, as in a sweep config
    for ks, seeds, name in [([100.9], [0], "ks"), ([100], [0.7], "seeds"),
                            ([True], [0], "ks"), ([100], [True], "seeds"),
                            ([0], [0], "ks"), ([-100], [0], "ks"), ([100], [-1], "seeds"),
                            ([float("nan")], [0], "ks"), ([100], [float("nan")], "seeds"),
                            ([np.float64(100.0)], [0], "ks"), ([100], ["0"], "seeds")]:
        with pytest.raises(SurroError, match=f"^{name} must be integers >= "):
            sample_rate_sweep(model, ks, seeds)
    table = sample_rate_sweep(model, [np.int64(3)], [np.uint8(1), 2])
    assert [(type(r.k), type(r.seed)) for r in table.rows] == [(int, int)] * 2
    assert [r.seed for r in table.rows] == [1, 2]


class _ConcaveModel(GaussianLatentModel):
    """The Gaussian model with a sample surrogate whose A~ is -1 at its fixed point 0."""

    def sample_problem(self, data):
        return SurrogateProblem(domain=FullSpace(1), eval_q=lambda t, u: -0.5 * float(u @ u),
                                grad2=lambda t, u: -u, hess22=lambda t, u: -np.eye(1),
                                hess12=lambda t, u: np.zeros((1, 1)),
                                closed_form_step=lambda t: np.zeros(1))

    def default_theta0(self):
        return np.zeros(1)


def test_a_cell_without_a_rate_pair_raises_like_verdicts():
    # the sweep once wrote rho_samp 0 for such a cell
    with pytest.raises(RatesError, match="A~ is not positive-definite"):
        sample_rate_sweep(_ConcaveModel(1.0, 1.0, 0.0), [3], [0])


@dataclass(frozen=True)
class _OscillatingModel(GaussianLatentModel):
    """The Gaussian model with a sample step theta -> -theta from `start`, which never contracts."""

    start: float = 1.0

    def sample_problem(self, data):
        return SurrogateProblem(domain=FullSpace(1), eval_q=lambda t, u: 0.5 * float(u @ u),
                                grad2=lambda t, u: u, closed_form_step=lambda t: -t)

    def default_theta0(self):
        return np.full(1, self.start)


def test_a_cell_that_stops_at_max_iters_raises_naming_k_and_seed():
    # the sweep once wrote rho_samp at the unconverged last iterate of such a cell; from
    # 1e-10 every step is at floating-point resolution, so the run stalls instead
    for start, reason in ((1.0, "max_iters"), (1e-10, "stalled")):
        with pytest.raises(SurroError, match=rf"k=3, seed=5 stopped at {reason}, unconverged"):
            sample_rate_sweep(_OscillatingModel(1.0, 1.0, 0.0, start), [3], [5])
