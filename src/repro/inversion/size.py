"""Per-flow size estimation from sampled counts.

Inverting the size of an individual flow from its sampled packet count
is the simplest inversion problem: under Bernoulli sampling with rate
``p``, the unbiased estimator of the original size is ``s / p``.  The
paper's point is that unbiasedness is not enough for *ranking* — the
estimation noise of two comparable flows overlaps — but the estimator
and its confidence interval remain the building block operators use in
practice, so they are provided here together with error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _normal_quantile(confidence_level: float) -> float:
    """The two-sided Normal quantile ``z`` of a confidence level."""
    from scipy import stats

    return float(stats.norm.ppf(0.5 + confidence_level / 2.0))


@dataclass(frozen=True)
class FlowSizeEstimate:
    """Estimate of an original flow size from its sampled packet count."""

    sampled_packets: int
    sampling_rate: float
    estimate: float
    std_error: float
    confidence_low: float
    confidence_high: float
    confidence_level: float


def estimate_flow_size(
    sampled_packets: int,
    sampling_rate: float,
    confidence_level: float = 0.95,
) -> FlowSizeEstimate:
    """Estimate the original flow size from a sampled packet count.

    The estimator is ``s / p``; the confidence interval uses the Normal
    approximation of the binomial, whose standard deviation (expressed
    on the original-size scale) is ``sqrt(s * (1 - p)) / p``.

    Parameters
    ----------
    sampled_packets:
        Number of packets of the flow present in the sampled stream.
    sampling_rate:
        Packet sampling probability ``p``.
    confidence_level:
        Two-sided confidence level of the reported interval.
    """
    if sampled_packets < 0:
        raise ValueError("sampled_packets must be non-negative")
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
    if not 0.0 < confidence_level < 1.0:
        raise ValueError("confidence_level must be in (0, 1)")
    estimate = sampled_packets / sampling_rate
    std_error = float(np.sqrt(sampled_packets * (1.0 - sampling_rate)) / sampling_rate)
    z = _normal_quantile(confidence_level)
    low = max(float(sampled_packets), estimate - z * std_error)
    high = estimate + z * std_error
    return FlowSizeEstimate(
        sampled_packets=int(sampled_packets),
        sampling_rate=float(sampling_rate),
        estimate=float(estimate),
        std_error=std_error,
        confidence_low=low,
        confidence_high=high,
        confidence_level=float(confidence_level),
    )


def relative_error_bound(
    original_size: float,
    sampling_rate: float,
    confidence_level: float = 0.95,
) -> float:
    """Relative error of the size estimate at a given confidence level.

    For a flow of ``S`` packets the estimator's relative standard
    deviation is ``sqrt((1-p) / (p * S))``; multiplied by the Normal
    quantile it bounds the relative error with the requested
    probability.  This is the quantity used by Choi et al. (the paper's
    reference [3]) to choose a sampling rate for volume estimation.
    """
    if original_size <= 0:
        raise ValueError("original_size must be positive")
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
    z = _normal_quantile(confidence_level)
    return float(z * np.sqrt((1.0 - sampling_rate) / (sampling_rate * original_size)))


def rate_for_relative_error(
    original_size: float,
    max_relative_error: float,
    confidence_level: float = 0.95,
) -> float:
    """Sampling rate needed to estimate a flow's size within a relative error.

    Inverts :func:`relative_error_bound`; useful to contrast "volume
    accuracy" targets with the much stricter rates the *ranking* problem
    requires (the contrast the paper draws in its introduction).
    """
    if original_size <= 0:
        raise ValueError("original_size must be positive")
    if max_relative_error <= 0:
        raise ValueError("max_relative_error must be positive")
    z = _normal_quantile(confidence_level)
    ratio = (z / max_relative_error) ** 2 / original_size
    return float(min(1.0, ratio / (1.0 + ratio)))


__all__ = ["FlowSizeEstimate", "estimate_flow_size", "relative_error_bound", "rate_for_relative_error"]
