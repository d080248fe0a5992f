"""Analytical model for ranking the top-t flows (Section 5 of the paper).

The monitor samples packets with probability ``p``, classifies them into
flows, and reports the ``t`` largest *sampled* flows in sorted order.
The paper quantifies the quality of that ranking with the **average
number of swapped flow pairs**, where a pair is formed by one true top-t
flow and any other flow of the original traffic:

* number of such pairs: ``(2N - t - 1) * t / 2``;
* probability that the pair formed by a top flow and a generic flow is
  swapped after sampling: ``P̄mt`` (Eq. 3 averaged over the size of the
  top flow);
* metric: ``(2N - t - 1) * t * P̄mt / 2`` — the ranking is deemed
  acceptable when the metric is below 1.

Two engines are provided:

* :class:`RankingModel` with ``method="gaussian"`` (default) evaluates
  Eq. 3 with the Gaussian pairwise approximation of Eq. 2 on the
  discretised flow size distribution.  This is what the paper uses for
  all its figures and it scales to millions of flows.
* ``method="exact"`` replaces the pairwise term with the exact binomial
  expression of Eq. 1.  It is meant for small flow populations and for
  validating the Gaussian engine.
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
class RankingAccuracy:
    """Result of evaluating the ranking model at one sampling rate.

    Attributes
    ----------
    sampling_rate:
        Packet sampling probability ``p``.
    top_t:
        Number of top flows being ranked.
    total_flows:
        Total number of flows ``N``.
    mean_misranking_probability:
        ``P̄mt`` — the probability that a random (top flow, generic flow)
        pair is swapped.
    swapped_pairs:
        The paper's metric: average number of swapped pairs.
    """

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
        """Number of (top flow, other flow) pairs the metric averages over."""
        return (2 * self.total_flows - self.top_t - 1) * self.top_t / 2.0


class RankingModel:
    """Average-swapped-pairs model for the top-t ranking problem.

    Parameters
    ----------
    population:
        Flow population (size distribution + total number of flows).
    top_t:
        Number of top flows whose ranking must be preserved.
    method:
        Pairwise misranking model: ``"gaussian"`` (Eq. 2, default) or
        ``"exact"`` (Eq. 1; the grid sizes are rounded to integers).

    Examples
    --------
    >>> from repro.distributions import ParetoFlowSizes
    >>> from repro.core.flow_size_model import FlowPopulation
    >>> dist = ParetoFlowSizes.from_mean(mean=9.6, shape=1.5)
    >>> pop = FlowPopulation.from_distribution(dist, total_flows=10_000)
    >>> model = RankingModel(pop, top_t=1)
    >>> low = model.evaluate(0.001).swapped_pairs
    >>> high = model.evaluate(0.5).swapped_pairs
    >>> high < low
    True
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
        from scipy import stats

        # Order-statistics terms do not depend on the sampling rate, so
        # they are precomputed once per model instance.
        n = population.total_flows
        tails = population.tail_probabilities
        t = self.top_t
        #: Pt(i, t, N): probability that a flow of size x_i is in the top t.
        self._membership = stats.binom.cdf(t - 1, n - 1, tails)
        #: Pt(i, t, N-1): same with one generic flow removed (other flow smaller).
        self._membership_smaller = stats.binom.cdf(t - 1, n - 2, tails)
        #: Pt(i, t-1, N-1): other flow is at least as large and occupies a slot.
        if t >= 2:
            self._membership_larger = stats.binom.cdf(t - 2, n - 2, tails)
        else:
            self._membership_larger = np.zeros_like(tails)

    # ------------------------------------------------------------------
    def _pairwise_matrix(self, sampling_rate: float) -> np.ndarray:
        sizes = self.population.sizes
        if self.method != "gaussian":
            return misranking_matrix_exact(np.maximum(np.rint(sizes), 1).astype(int), sampling_rate)
        matrix = misranking_matrix_gaussian(sizes, sampling_rate)
        if not self.population.distribution.is_discrete:
            # Two *continuous* flows falling into the same grid bin are not
            # exact ties: their sizes differ by a fraction of the bin
            # width.  Replace the saturated erfc(0)/2 = 0.5 diagonal with
            # the misranking probability of two flows separated by the
            # mean within-bin gap, so that full capture converges to a
            # perfect ranking as in the continuous model.
            gaps = np.empty_like(sizes)
            gaps[1:-1] = (sizes[2:] - sizes[:-2]) / 2.0
            gaps[0] = sizes[1] - sizes[0]
            gaps[-1] = sizes[-1] - sizes[-2]
            within_bin_gap = gaps / 3.0
            if sampling_rate >= 1.0:
                np.fill_diagonal(matrix, 0.0)
            else:
                from scipy import special

                denom = np.sqrt(2.0 * (1.0 / sampling_rate - 1.0) * (2.0 * sizes))
                np.fill_diagonal(matrix, 0.5 * special.erfc(within_bin_gap / denom))
        return matrix

    def top_flow_size_pmf(self) -> np.ndarray:
        """Distribution of the size of a flow given that it is in the top t.

        ``Pt(i) = p_i * Pt(i, t, N) / (t / N)`` — used by tests and by the
        detection model's sanity checks; sums to 1 over the grid.
        """
        n = self.population.total_flows
        weights = self.population.probabilities * self._membership * (n / self.top_t)
        return weights

    def mean_misranking_probability(self, sampling_rate: float) -> float:
        """``P̄mt``: average swap probability of a (top flow, generic flow) pair."""
        q = self.population.probabilities
        pairwise = self._pairwise_matrix(sampling_rate)
        num_points = q.size
        # lower[i] = sum_{j < i} q_j Pm(x_j, x_i); upper[i] = sum_{j >= i} q_j Pm(x_i, x_j)
        weighted = pairwise * q[None, :]
        cumulative = np.cumsum(weighted, axis=1)
        lower = np.zeros(num_points)
        lower[1:] = cumulative[np.arange(1, num_points), np.arange(0, num_points - 1)]
        upper = cumulative[:, -1] - lower
        contribution = q * (self._membership_smaller * lower + self._membership_larger * upper)
        n = self.population.total_flows
        return float(np.clip(contribution.sum() * n / self.top_t, 0.0, 1.0))

    def evaluate(self, sampling_rate: float) -> RankingAccuracy:
        """Evaluate the swapped-pairs metric at one sampling rate."""
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
        pbar = self.mean_misranking_probability(sampling_rate)
        n = self.population.total_flows
        metric = (2 * n - self.top_t - 1) * self.top_t * pbar / 2.0
        return RankingAccuracy(
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


__all__ = ["RankingModel", "RankingAccuracy", "PairwiseMethod"]
