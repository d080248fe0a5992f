"""Gaussian approximation of the misranking probability (Section 4).

When the sampling rate ``p`` is small and ``p * S`` is of the order of a
few packets, the binomial sampled size of a flow of ``S`` packets is well
approximated by a Normal distribution with mean ``p*S`` and variance
``p*(1-p)*S``.  The difference of the two sampled sizes is then Normal as
well, which yields the closed form of Eq. 2 of the paper::

    Pm(S1, S2) = 1/2 * erfc( |S2 - S1| / sqrt(2 * (1/p - 1) * (S1 + S2)) )

This module provides the approximation, its error against the exact
binomial computation, and the error surface reproduced in Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .misranking import misranking_probability_exact


def misranking_probability_gaussian(
    size_a: np.ndarray | float,
    size_b: np.ndarray | float,
    sampling_rate: float,
) -> np.ndarray | float:
    """Gaussian approximation of the misranking probability (Eq. 2).

    Unlike the exact computation, sizes may be non-integer (the ranking
    engine treats the flow size distribution as continuous) and the
    function broadcasts over NumPy arrays.

    Parameters
    ----------
    size_a, size_b:
        Flow sizes in packets (positive, broadcastable).
    sampling_rate:
        Packet sampling probability ``p`` in ``(0, 1]``.

    Examples
    --------
    >>> float(misranking_probability_gaussian(100, 100, 0.1))
    0.5
    >>> float(misranking_probability_gaussian(10, 1000, 1.0))
    0.0
    """
    p = float(sampling_rate)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
    a = np.asarray(size_a, dtype=float)
    b = np.asarray(size_b, dtype=float)
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("flow sizes must be positive")
    diff = np.abs(b - a)
    if p == 1.0:
        # No sampling noise: only exactly equal sizes can be "misranked"
        # (they tie), for which the Gaussian formula returns 1/2.
        out = np.where(diff == 0.0, 0.5, 0.0)
        scalar = np.isscalar(size_a) and np.isscalar(size_b)
        return float(out) if scalar else out
    from scipy import special

    denom = np.sqrt(2.0 * (1.0 / p - 1.0) * (a + b))
    out = 0.5 * special.erfc(diff / denom)
    scalar = np.isscalar(size_a) and np.isscalar(size_b)
    return float(out) if scalar else out


def misranking_matrix_gaussian(sizes: np.ndarray, sampling_rate: float) -> np.ndarray:
    """Pairwise Gaussian misranking probabilities for a vector of sizes."""
    size_arr = np.asarray(sizes, dtype=float)
    if size_arr.ndim != 1:
        raise ValueError("sizes must be a 1-D array")
    return np.asarray(
        misranking_probability_gaussian(size_arr[:, None], size_arr[None, :], sampling_rate)
    )


def gaussian_absolute_error(size_a: int, size_b: int, sampling_rate: float) -> float:
    """Absolute error of the Gaussian approximation for one flow pair."""
    exact = misranking_probability_exact(size_a, size_b, sampling_rate)
    approx = float(misranking_probability_gaussian(size_a, size_b, sampling_rate))
    return abs(exact - approx)


@dataclass(frozen=True)
class GaussianErrorSurface:
    """Absolute error of the Gaussian approximation on a size grid (Fig. 3).

    Attributes
    ----------
    sizes:
        Flow sizes (both axes of the surface).
    errors:
        ``errors[i, j]`` is ``|Pm_exact - Pm_gaussian|`` for the pair
        ``(sizes[i], sizes[j])``.
    sampling_rate:
        The packet sampling probability used.
    """

    sizes: np.ndarray
    errors: np.ndarray
    sampling_rate: float

    @property
    def max_error(self) -> float:
        """Largest absolute error over the grid."""
        return float(self.errors.max())

    def max_error_above(self, min_size: float, exclude_ties: bool = True) -> float:
        """Largest error restricted to pairs where one flow exceeds ``min_size``.

        The paper observes the approximation is accurate as soon as one
        of the two flows has ``p * S`` of a few packets; this helper
        quantifies exactly that claim.  Pairs of exactly equal sizes are
        excluded by default: for ties the exact model uses the special
        equal-size formula while the Gaussian model saturates at 1/2, so
        the comparison is not meaningful there.
        """
        mask = (self.sizes[:, None] >= min_size) | (self.sizes[None, :] >= min_size)
        if exclude_ties:
            mask &= self.sizes[:, None] != self.sizes[None, :]
        if not np.any(mask):
            raise ValueError("no grid pair satisfies the size constraint")
        return float(self.errors[mask].max())


def gaussian_error_surface(
    sizes: np.ndarray,
    sampling_rate: float,
) -> GaussianErrorSurface:
    """Compute the Fig. 3 error surface on an arbitrary grid of sizes."""
    size_arr = np.asarray(sizes, dtype=np.int64)
    if size_arr.ndim != 1 or size_arr.size == 0:
        raise ValueError("sizes must be a non-empty 1-D array")
    if np.any(size_arr < 1):
        raise ValueError("sizes must be at least 1 packet")
    n = size_arr.size
    errors = np.empty((n, n), dtype=float)
    approx = misranking_matrix_gaussian(size_arr.astype(float), sampling_rate)
    for i in range(n):
        for j in range(i, n):
            exact = misranking_probability_exact(int(size_arr[i]), int(size_arr[j]), sampling_rate)
            err = abs(exact - approx[i, j])
            errors[i, j] = err
            errors[j, i] = err
    return GaussianErrorSurface(sizes=size_arr.astype(float), errors=errors, sampling_rate=float(sampling_rate))


__all__ = [
    "misranking_probability_gaussian",
    "misranking_matrix_gaussian",
    "gaussian_absolute_error",
    "gaussian_error_surface",
    "GaussianErrorSurface",
]
