"""Lognormal flow size distribution.

The Abilene trace used in Section 8.3 of the paper exhibits a *short
tailed* flow size distribution, which the paper shows makes ranking
harder.  We model that trace with a lognormal distribution (moderate
sigma), the standard short/medium-tail alternative to Pareto in traffic
modelling.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Any

import numpy as np

from .base import FlowSizeDistribution


class LognormalFlowSizes(FlowSizeDistribution):
    """Lognormal distribution of flow sizes, shifted to a minimum size."""

    def __init__(self, mu: float, sigma: float, min_size: float = 1.0) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if min_size < 0:
            raise ValueError("min_size must be non-negative")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.min_size = float(min_size)

    @cached_property
    def _dist(self) -> Any:
        """The frozen ``scipy.stats.lognorm``, built on first use.

        :meth:`sample` needs no SciPy, so synthesising a trace from
        this distribution does not import it.
        """
        from scipy import stats

        return stats.lognorm(s=self.sigma, scale=math.exp(self.mu))

    @classmethod
    def from_mean_sigma(cls, mean: float, sigma: float, min_size: float = 1.0) -> "LognormalFlowSizes":
        """Build a lognormal with prescribed mean (of the unshifted part)."""
        if mean <= min_size:
            raise ValueError("mean must exceed min_size")
        mu = math.log(mean - min_size) - sigma**2 / 2.0
        return cls(mu=mu, sigma=sigma, min_size=min_size)

    @property
    def mean(self) -> float:
        return self.min_size + float(self._dist.mean())

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x_arr = np.asarray(x, dtype=float)
        out = self._dist.cdf(np.maximum(x_arr - self.min_size, 0.0))
        return out if isinstance(x, np.ndarray) else float(out)

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x_arr = np.asarray(x, dtype=float)
        out = self._dist.pdf(np.maximum(x_arr - self.min_size, 0.0))
        out = np.where(x_arr < self.min_size, 0.0, out)
        return out if isinstance(x, np.ndarray) else float(out)

    def quantile(self, q: np.ndarray | float) -> np.ndarray | float:
        q_arr = np.asarray(q, dtype=float)
        if np.any((q_arr < 0.0) | (q_arr > 1.0)):
            raise ValueError("quantile levels must lie in [0, 1]")
        out = self.min_size + self._dist.ppf(q_arr)
        return out if isinstance(q, np.ndarray) else float(out)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be non-negative")
        return self.min_size + rng.lognormal(self.mu, self.sigma, size=n)

    def __repr__(self) -> str:
        return (
            f"LognormalFlowSizes(mu={self.mu!r}, sigma={self.sigma!r}, "
            f"min_size={self.min_size!r})"
        )


__all__ = ["LognormalFlowSizes"]
