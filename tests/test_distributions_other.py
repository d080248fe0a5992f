"""Tests for the exponential, lognormal and Weibull distributions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import (
    ExponentialFlowSizes,
    LognormalFlowSizes,
    ParetoFlowSizes,
    WeibullFlowSizes,
)

ALL_CONTINUOUS = [
    ExponentialFlowSizes(mean=10.0),
    LognormalFlowSizes.from_mean_sigma(mean=10.0, sigma=1.0),
    WeibullFlowSizes(shape=0.8, scale=8.0),
    ParetoFlowSizes.from_mean(mean=10.0, shape=1.5),
]


class TestCommonDistributionContract:
    @pytest.mark.parametrize("dist", ALL_CONTINUOUS, ids=lambda d: type(d).__name__)
    def test_cdf_monotone_and_bounded(self, dist):
        x = np.linspace(1.0, 500.0, 300)
        cdf = np.asarray(dist.cdf(x))
        assert np.all(np.diff(cdf) >= -1e-12)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))

    @pytest.mark.parametrize("dist", ALL_CONTINUOUS, ids=lambda d: type(d).__name__)
    def test_quantile_inverts_cdf(self, dist):
        levels = np.array([0.05, 0.25, 0.5, 0.75, 0.95, 0.999])
        x = np.asarray(dist.quantile(levels))
        np.testing.assert_allclose(np.asarray(dist.cdf(x)), levels, atol=1e-6)

    @pytest.mark.parametrize("dist", ALL_CONTINUOUS, ids=lambda d: type(d).__name__)
    def test_pdf_non_negative(self, dist):
        x = np.linspace(0.5, 200.0, 200)
        assert np.all(np.asarray(dist.pdf(x)) >= 0.0)

    @pytest.mark.parametrize("dist", ALL_CONTINUOUS, ids=lambda d: type(d).__name__)
    def test_sample_mean_close_to_analytic(self, dist, rng):
        samples = dist.sample(100_000, rng)
        assert samples.mean() == pytest.approx(dist.mean, rel=0.25)

    @pytest.mark.parametrize("dist", ALL_CONTINUOUS, ids=lambda d: type(d).__name__)
    def test_discretize_sums_to_one(self, dist):
        grid = dist.discretize(num_points=200)
        assert grid.probabilities.sum() == pytest.approx(1.0)


class TestExponential:
    def test_mean(self):
        assert ExponentialFlowSizes(mean=12.0, min_size=2.0).mean == pytest.approx(12.0)

    def test_rejects_mean_below_min_size(self):
        with pytest.raises(ValueError):
            ExponentialFlowSizes(mean=1.0, min_size=2.0)

    def test_rate_parameter(self):
        dist = ExponentialFlowSizes(mean=11.0, min_size=1.0)
        assert dist.rate == pytest.approx(0.1)

    def test_samples_above_min_size(self, rng):
        dist = ExponentialFlowSizes(mean=5.0, min_size=1.0)
        assert dist.sample(1000, rng).min() >= 1.0


class TestLognormal:
    def test_from_mean_sigma_mean(self):
        dist = LognormalFlowSizes.from_mean_sigma(mean=20.0, sigma=1.5)
        assert dist.mean == pytest.approx(20.0, rel=1e-6)

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError):
            LognormalFlowSizes(mu=1.0, sigma=0.0)

    def test_shorter_tail_than_pareto(self):
        """The Abilene substitution relies on lognormal being shorter tailed."""
        lognormal = LognormalFlowSizes.from_mean_sigma(mean=9.6, sigma=1.0)
        pareto = ParetoFlowSizes.from_mean(mean=9.6, shape=1.5)
        q = 1.0 - 1e-6
        assert lognormal.quantile(q) < pareto.quantile(q)


class TestWeibull:
    def test_mean_uses_gamma_function(self):
        dist = WeibullFlowSizes(shape=1.0, scale=5.0, min_size=0.0)
        assert dist.mean == pytest.approx(5.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            WeibullFlowSizes(shape=-1.0, scale=1.0)
        with pytest.raises(ValueError):
            WeibullFlowSizes(shape=1.0, scale=0.0)
