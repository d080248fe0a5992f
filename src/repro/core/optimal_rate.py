"""Optimal (minimum) sampling rate for a target misranking probability.

Section 3.2 of the paper: for a pair of flow sizes and a desired
misranking probability ``Pm,d`` there is a unique sampling rate ``p_d``
such that any rate above it keeps the misranking probability below the
target.  Figures 1 and 2 of the paper plot this rate over a grid of flow
size pairs for ``Pm,d = 0.1%``.

Two solvers are provided:

* ``method="exact"`` — bisection on the exact binomial probability;
* ``method="gaussian"`` — closed-form inversion of Eq. 2, which is what
  makes the full Fig. 1/2 surfaces cheap to compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .gaussian import misranking_probability_gaussian
from .misranking import misranking_probability_exact

Method = Literal["exact", "gaussian"]

#: Target misranking probability used for Figs. 1 and 2 of the paper.
PAPER_TARGET_MISRANKING = 1e-3


def optimal_rate_gaussian(size_a: float, size_b: float, target: float) -> float:
    """Closed-form optimal rate from the Gaussian approximation.

    Inverts Eq. 2: with ``d = |S2 - S1|`` and ``c = erfc^{-1}(2 * target)``,
    ``1/p - 1 = d^2 / (2 * (S1 + S2) * c^2)``.

    Returns 1.0 when even full capture cannot reach the target (equal
    sizes, where the Gaussian model gives a floor of 0.5).
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target}")
    if size_a <= 0 or size_b <= 0:
        raise ValueError("flow sizes must be positive")
    diff = abs(float(size_b) - float(size_a))
    if diff == 0.0:
        return 1.0
    if target >= 0.5:
        # erfc(x)/2 < 0.5 for any x > 0: any rate achieves the target.
        return 0.0
    from scipy import special

    c = float(special.erfcinv(2.0 * target))
    inv_p_minus_1 = diff**2 / (2.0 * (float(size_a) + float(size_b)) * c**2)
    return float(min(1.0, 1.0 / (1.0 + inv_p_minus_1)))


def optimal_rate_exact(
    size_a: int,
    size_b: int,
    target: float,
    tolerance: float = 1e-6,
    max_iterations: int = 80,
) -> float:
    """Bisection on the exact misranking probability.

    Returns the smallest sampling rate whose exact misranking probability
    is at most ``target`` (1.0 when the target is unreachable even at
    full capture, e.g. equal flow sizes).
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target}")
    if misranking_probability_exact(size_a, size_b, 1.0) > target:
        return 1.0
    low, high = 0.0, 1.0
    for _ in range(max_iterations):
        if high - low <= tolerance:
            break
        mid = 0.5 * (low + high)
        if mid <= 0.0:
            break
        if misranking_probability_exact(size_a, size_b, mid) > target:
            low = mid
        else:
            high = mid
    return float(high)


def optimal_sampling_rate(
    size_a: float,
    size_b: float,
    target: float = PAPER_TARGET_MISRANKING,
    method: Method = "gaussian",
) -> float:
    """Minimum sampling rate keeping the pair misranking below ``target``.

    Parameters
    ----------
    size_a, size_b:
        Original flow sizes in packets.
    target:
        Desired misranking probability ``Pm,d`` (paper default 0.1%).
    method:
        ``"gaussian"`` (closed form, default) or ``"exact"`` (bisection
        on the binomial model; sizes must be integers).
    """
    if method == "gaussian":
        return optimal_rate_gaussian(size_a, size_b, target)
    if method == "exact":
        return optimal_rate_exact(int(round(size_a)), int(round(size_b)), target)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class OptimalRateSurface:
    """Optimal sampling rate over a grid of flow size pairs (Figs. 1-2).

    Attributes
    ----------
    sizes_a, sizes_b:
        The two axes of the grid (flow sizes in packets).
    rates:
        ``rates[i, j]`` is the optimal sampling rate for the pair
        ``(sizes_a[i], sizes_b[j])``, as a fraction in ``[0, 1]``.
    target:
        Target misranking probability.
    """

    sizes_a: np.ndarray
    sizes_b: np.ndarray
    rates: np.ndarray
    target: float

    @property
    def rates_percent(self) -> np.ndarray:
        """Rates expressed in percent, as plotted in the paper."""
        return self.rates * 100.0

    def diagonal(self) -> np.ndarray:
        """Rates for equal-size pairs (the ridge of the surface)."""
        if self.sizes_a.shape != self.sizes_b.shape or np.any(self.sizes_a != self.sizes_b):
            raise ValueError("diagonal is defined only for a square grid with identical axes")
        return np.diag(self.rates)


def optimal_rate_surface(
    sizes_a: np.ndarray,
    sizes_b: np.ndarray | None = None,
    target: float = PAPER_TARGET_MISRANKING,
    method: Method = "gaussian",
) -> OptimalRateSurface:
    """Compute the optimal-sampling-rate surface of Figs. 1 and 2.

    Parameters
    ----------
    sizes_a:
        Flow sizes along the first axis.
    sizes_b:
        Flow sizes along the second axis (defaults to ``sizes_a``).
    target:
        Target misranking probability (paper: 0.1%).
    method:
        ``"gaussian"`` or ``"exact"``.
    """
    a = np.asarray(sizes_a, dtype=float)
    b = a if sizes_b is None else np.asarray(sizes_b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("size axes must be 1-D arrays")
    rates = np.empty((a.size, b.size), dtype=float)
    if method == "gaussian":
        from scipy import special

        c = float(special.erfcinv(2.0 * target))
        diff = np.abs(b[None, :] - a[:, None])
        total = a[:, None] + b[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = diff**2 / (2.0 * total * c**2)
            rates = np.where(diff == 0.0, 1.0, np.minimum(1.0, 1.0 / (1.0 + inv)))
    else:
        for i, sa in enumerate(a):
            for j, sb in enumerate(b):
                rates[i, j] = optimal_sampling_rate(sa, sb, target, method=method)
    return OptimalRateSurface(sizes_a=a, sizes_b=b, rates=rates, target=float(target))


def verify_rate_achieves_target(
    size_a: int,
    size_b: int,
    sampling_rate: float,
    target: float,
) -> bool:
    """Check (with the exact model) that a rate meets a misranking target."""
    return misranking_probability_exact(size_a, size_b, sampling_rate) <= target


def gaussian_rate_is_consistent(size_a: float, size_b: float, target: float) -> bool:
    """Sanity check: the Gaussian-optimal rate achieves the Gaussian target."""
    rate = optimal_rate_gaussian(size_a, size_b, target)
    if rate >= 1.0 or rate <= 0.0:
        return True
    achieved = float(misranking_probability_gaussian(size_a, size_b, rate))
    return achieved <= target * (1.0 + 1e-9)


__all__ = [
    "PAPER_TARGET_MISRANKING",
    "optimal_sampling_rate",
    "optimal_rate_gaussian",
    "optimal_rate_exact",
    "optimal_rate_surface",
    "OptimalRateSurface",
    "verify_rate_achieves_target",
    "gaussian_rate_is_consistent",
]
