"""Analytical model for detecting the top-t flows (Section 7 of the paper).

The detection problem relaxes the ranking problem: the monitor must
report the correct *set* of the ``t`` largest flows, but their relative
order inside the set does not matter.  Pairs are therefore formed by one
flow inside the true top-t list and one flow outside of it; the metric is
the average number of such pairs that are swapped after sampling,
``t * (N - t) * P̄*mt``, where (paper, Section 7.1)::

    P̄*mt = (1 / P̄*t) * sum_i sum_{j<i} p_i p_j P*t(j, i, t, N) Pm(j, i)

    P*t(j, i, t, N) = sum_{k=0}^{t-1} b_{P_i}(k, N-2)
                      * sum_{l=t-k-1}^{N-k-2} b_{P_{j,i}}(l, N-k-2)

with ``P_{j,i} = (P_j - P_i) / (1 - P_i)`` the probability that a flow
size falls between ``j`` and ``i`` given that it is below ``i``, and
``P̄*t = t (N - t) / (N (N - 1))``.

As in the ranking model, the pairwise term uses the Gaussian
approximation by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .flow_size_model import FlowPopulation
from .gaussian import misranking_matrix_gaussian
from .misranking import misranking_matrix_exact

PairwiseMethod = Literal["gaussian", "exact"]


@dataclass(frozen=True)
class DetectionAccuracy:
    """Result of evaluating the detection model at one sampling rate."""

    sampling_rate: float
    top_t: int
    total_flows: int
    mean_misranking_probability: float
    swapped_pairs: float

    @property
    def acceptable(self) -> bool:
        """Paper's acceptance criterion: fewer than one swapped pair on average."""
        return self.swapped_pairs < 1.0

    @property
    def pair_count(self) -> float:
        """Number of (top flow, non-top flow) pairs the metric averages over."""
        return float(self.top_t * (self.total_flows - self.top_t))


class DetectionModel:
    """Average-swapped-pairs model for the top-t detection problem.

    Parameters mirror :class:`repro.core.ranking.RankingModel`.  For
    ``top_t == 1`` detection and ranking coincide (the paper makes the
    same observation), which is used as a cross-check in the test suite.
    """

    def __init__(
        self,
        population: FlowPopulation,
        top_t: int,
        method: PairwiseMethod = "gaussian",
    ) -> None:
        self.population = population
        self.top_t = population.validate_top_t(top_t)
        if method not in ("gaussian", "exact"):
            raise ValueError(f"unknown pairwise method {method!r}")
        self.method = method
        self._joint_membership = self._compute_joint_membership()

    # ------------------------------------------------------------------
    def _compute_joint_membership(self) -> np.ndarray:
        """``P*t(j, i, t, N)`` for every grid pair ``j < i``.

        Returns a lower-triangular matrix ``J`` with ``J[i, j]`` the
        probability that a flow of size ``x_i`` is in the top t while a
        flow of size ``x_j < x_i`` is not.  Independent of the sampling
        rate, so computed once per model.
        """
        from scipy import stats

        n = self.population.total_flows
        t = self.top_t
        tails = self.population.tail_probabilities
        num_points = tails.size
        joint = np.zeros((num_points, num_points), dtype=float)
        k_values = np.arange(t)
        for i in range(1, num_points):
            tail_i = tails[i]
            tail_j = tails[:i]
            # P{size between x_j and x_i | size below x_i}
            denom = max(1.0 - tail_i, 1e-300)
            between = np.clip((tail_j - tail_i) / denom, 0.0, 1.0)
            # outer_prob[k] = b_{P_i}(k, N-2)
            outer_prob = stats.binom.pmf(k_values, n - 2, tail_i)
            acc = np.zeros(i, dtype=float)
            for k in k_values:
                trials = n - k - 2
                threshold = t - k - 2
                if threshold < 0:
                    inner = np.ones(i, dtype=float)
                else:
                    inner = stats.binom.sf(threshold, trials, between)
                acc += outer_prob[k] * inner
            joint[i, :i] = acc
        return joint

    def _pairwise_matrix(self, sampling_rate: float) -> np.ndarray:
        sizes = self.population.sizes
        if self.method == "gaussian":
            return misranking_matrix_gaussian(sizes, sampling_rate)
        return misranking_matrix_exact(np.maximum(np.rint(sizes), 1).astype(int), sampling_rate)

    # ------------------------------------------------------------------
    def mean_misranking_probability(self, sampling_rate: float) -> float:
        """``P̄*mt``: swap probability of a random (top flow, non-top flow) pair."""
        q = self.population.probabilities
        pairwise = self._pairwise_matrix(sampling_rate)
        n = self.population.total_flows
        t = self.top_t
        joint_normaliser = t * (n - t) / (n * (n - 1.0))
        weighted = (q[:, None] * q[None, :]) * self._joint_membership * pairwise
        total = float(np.tril(weighted, k=-1).sum())
        return float(np.clip(total / joint_normaliser, 0.0, 1.0))

    def evaluate(self, sampling_rate: float) -> DetectionAccuracy:
        """Evaluate the detection metric at one sampling rate."""
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
        pbar = self.mean_misranking_probability(sampling_rate)
        n = self.population.total_flows
        metric = self.top_t * (n - self.top_t) * pbar
        return DetectionAccuracy(
            sampling_rate=float(sampling_rate),
            top_t=self.top_t,
            total_flows=n,
            mean_misranking_probability=pbar,
            swapped_pairs=float(metric),
        )

    def swapped_pairs(self, sampling_rate: float) -> float:
        """Shorthand for ``evaluate(p).swapped_pairs``."""
        return self.evaluate(sampling_rate).swapped_pairs

    def metric_curve(self, sampling_rates: Sequence[float]) -> np.ndarray:
        """Evaluate the metric over a sweep of sampling rates (one figure line)."""
        return np.array([self.swapped_pairs(p) for p in sampling_rates], dtype=float)


__all__ = ["DetectionModel", "DetectionAccuracy"]
