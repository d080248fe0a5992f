"""Exact misranking probability of two flows under packet sampling.

Section 3 of the paper: two flows of original sizes ``S1`` and ``S2``
packets are sampled independently packet-by-packet with probability
``p``.  Their sampled sizes ``s1`` and ``s2`` follow binomial
distributions, and the pair is *misranked* when the originally smaller
flow receives at least as many sampled packets as the larger one (which
also covers the case where both flows vanish from the sampled stream).

For ``S1 < S2`` (Eq. 1 of the paper)::

    Pm(S1, S2) = sum_{i=0}^{S1} b_p(i, S1) * sum_{j=0}^{i} b_p(j, S2)

and for two flows of identical size ``S``::

    Pm(S, S) = 1 - sum_{i=1}^{S} b_p(i, S)^2
"""

from __future__ import annotations

import numpy as np


def _validate_rate(sampling_rate: float) -> float:
    rate = float(sampling_rate)
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
    return rate


def _validate_size(size: int, name: str = "size") -> int:
    value = int(size)
    if value < 1:
        raise ValueError(f"{name} must be at least 1 packet, got {size}")
    return value


def misranking_probability_exact(size_a: int, size_b: int, sampling_rate: float) -> float:
    """Exact probability that two flows are misranked after sampling.

    Implements Eq. 1 of the paper (and the equal-size special case).
    The function is symmetric in its size arguments.

    Parameters
    ----------
    size_a, size_b:
        Original flow sizes in packets (positive integers).
    sampling_rate:
        Packet sampling probability ``p`` in ``(0, 1]``.

    Returns
    -------
    float
        ``P{misranking}`` in ``[0, 1]``.

    Examples
    --------
    >>> misranking_probability_exact(1, 100, 1.0)
    0.0
    >>> 0.0 < misranking_probability_exact(50, 60, 0.01) < 1.0
    True
    """
    p = _validate_rate(sampling_rate)
    s_small = _validate_size(min(size_a, size_b), "size")
    s_large = _validate_size(max(size_a, size_b), "size")

    if s_small == s_large:
        return misranking_probability_equal_sizes(s_small, p)

    from scipy import stats

    i = np.arange(0, s_small + 1)
    pmf_small = stats.binom.pmf(i, s_small, p)
    cdf_large = stats.binom.cdf(i, s_large, p)
    return float(np.clip(np.dot(pmf_small, cdf_large), 0.0, 1.0))


def misranking_probability_equal_sizes(size: int, sampling_rate: float) -> float:
    """Misranking probability for two flows of the same original size.

    Two equal flows are considered correctly ranked only when their
    sampled sizes are equal and non-zero (paper, end of Section 3):
    ``P{misrank} = 1 - sum_{i=1}^{S} b_p(i, S)^2``.
    """
    p = _validate_rate(sampling_rate)
    s = _validate_size(size)
    from scipy import stats

    i = np.arange(1, s + 1)
    pmf = stats.binom.pmf(i, s, p)
    return float(np.clip(1.0 - np.dot(pmf, pmf), 0.0, 1.0))


def minimum_misranking_probability(size: int, sampling_rate: float) -> float:
    """Misranking probability of a flow of ``size`` packets vs a 1-packet flow.

    Section 3.1 shows this is the smallest misranking probability a flow
    of a given size can achieve over all possible opponents:
    ``(1-p)^(S-1) * (1 - p + p^2 * S)``, which tends to zero as the flow
    grows.
    """
    p = _validate_rate(sampling_rate)
    s = _validate_size(size)
    return float((1.0 - p) ** (s - 1) * (1.0 - p + p * p * s))


def misranking_matrix_exact(
    sizes: np.ndarray,
    sampling_rate: float,
) -> np.ndarray:
    """Pairwise exact misranking probabilities for a vector of flow sizes.

    Returns a symmetric ``len(sizes) x len(sizes)`` matrix whose ``(i, j)``
    entry is ``Pm(sizes[i], sizes[j])``; the diagonal holds the
    equal-size probabilities.  Intended for the exact (small ``N``)
    ranking engine and for validating the Gaussian approximation.
    """
    p = _validate_rate(sampling_rate)
    size_arr = np.asarray(sizes, dtype=np.int64)
    if size_arr.ndim != 1:
        raise ValueError("sizes must be a 1-D array")
    if np.any(size_arr < 1):
        raise ValueError("all sizes must be at least 1 packet")
    n = size_arr.size
    matrix = np.empty((n, n), dtype=float)
    for i in range(n):
        matrix[i, i] = misranking_probability_equal_sizes(int(size_arr[i]), p)
        for j in range(i + 1, n):
            value = misranking_probability_exact(int(size_arr[i]), int(size_arr[j]), p)
            matrix[i, j] = value
            matrix[j, i] = value
    return matrix


def probability_larger_flow_sampled(size: int, sampling_rate: float) -> float:
    """Probability that at least one packet of a flow is sampled.

    The paper notes that sampling at least one packet from the larger
    flow is a necessary condition for ranking a pair correctly.
    """
    p = _validate_rate(sampling_rate)
    s = _validate_size(size)
    return float(1.0 - (1.0 - p) ** s)


__all__ = [
    "misranking_probability_exact",
    "misranking_probability_equal_sizes",
    "minimum_misranking_probability",
    "misranking_matrix_exact",
    "probability_larger_flow_sampled",
]
