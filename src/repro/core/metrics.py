"""Empirical ranking and detection metrics on observed flow lists.

The analytical models of Sections 5-7 predict the *average* number of
swapped flow pairs; the trace-driven simulations of Section 8 measure
the same quantity on concrete (original, sampled) flow size lists.  This
module implements that measurement, plus a few auxiliary rank-quality
metrics that are useful in practice even though they do not appear in
the paper (top-t set overlap, rank displacement).

One scorer, :func:`swapped_pair_counts`, counts both metrics at once
with NumPy, looping only over the ``t`` top flows; the pipeline executor
scores every (bin, stream) through it, and :func:`ranking_swapped_pairs`,
:func:`detection_swapped_pairs` and :func:`rank_quality_report` are thin
wrappers around it.  The explicit pair-by-pair double loops survive as
the test oracle ``tests/oracles/metrics.py``.

Conventions (matching the analytical model):

* a pair is formed by one flow of the *true* top-t list and one other
  flow of the original traffic (for the ranking metric) or one flow
  outside the true top-t list (for the detection metric);
* a pair of flows with different original sizes is swapped when the
  originally smaller flow has a sampled size at least as large as the
  originally bigger flow's sampled size;
* a pair of flows with equal original sizes is swapped when their
  sampled sizes differ, or when both are zero.

Hostile sizes fail here, at the metric boundary: NaN or infinite sizes,
non-positive original sizes and negative sampled sizes raise
:class:`ValueError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


def _as_aligned_arrays(
    original_sizes: Sequence[float] | Mapping[object, float],
    sampled_sizes: Sequence[float] | Mapping[object, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Align original and sampled sizes into two same-length arrays.

    Both mappings (flow id -> size) and plain sequences are accepted;
    with mappings, flows absent from the sampled side count as size 0.
    """
    if isinstance(original_sizes, Mapping):
        if not isinstance(sampled_sizes, Mapping):
            raise TypeError("sampled_sizes must be a mapping when original_sizes is one")
        keys = list(original_sizes.keys())
        original = np.array([float(original_sizes[k]) for k in keys], dtype=float)
        sampled = np.array([float(sampled_sizes.get(k, 0.0)) for k in keys], dtype=float)
        return original, sampled
    original = np.asarray(list(original_sizes), dtype=float)
    sampled = np.asarray(list(sampled_sizes), dtype=float)
    if original.shape != sampled.shape:
        raise ValueError("original and sampled size lists must have the same length")
    return original, sampled


def _validate(original: np.ndarray, top_t: int) -> int:
    if original.ndim != 1:
        raise ValueError("flow sizes must form a 1-D array")
    if original.size < 2:
        raise ValueError("at least two flows are required")
    t = int(top_t)
    if t < 1 or t > original.size:
        raise ValueError(f"top_t must be between 1 and the number of flows, got {top_t}")
    return t


@dataclass(frozen=True)
class SwappedPairCounts:
    """Ranking and detection swapped-pair counts for one bin and one run."""

    ranking: int
    detection: int
    top_t: int
    num_flows: int


def _sizes(values: object, role: str) -> np.ndarray:
    """``values`` as ``int64`` when integer, else as finite ``float64``.

    An ``int64`` array (the executor's bin columns) is returned as is
    and skips the finiteness pass.
    """
    array = np.asarray(values)
    if array.dtype.kind in "iu":
        return array.astype(np.int64, copy=False)
    array = array.astype(np.float64, copy=False)
    if not np.isfinite(array).all():
        raise ValueError(f"{role} sizes must be finite, got NaN or inf")
    return array


def _checked_sizes(
    original_counts: object, sampled_counts: object
) -> tuple[np.ndarray, np.ndarray]:
    """Both size lists as aligned 1-D arrays, hostile values rejected."""
    original = _sizes(original_counts, "original")
    sampled = _sizes(sampled_counts, "sampled")
    if original.shape != sampled.shape or original.ndim != 1:
        raise ValueError("original and sampled counts must be 1-D arrays of equal length")
    if original.size:
        if not original.min() > 0:
            raise ValueError("original sizes must be positive")
        if sampled.min() < 0:
            raise ValueError("sampled sizes must be non-negative")
    return original, sampled


def true_top_indices(original_sizes: np.ndarray, top_t: int) -> np.ndarray:
    """Indices of the true top-t flows (ties broken by index for determinism)."""
    order = np.lexsort((np.arange(original_sizes.size), -original_sizes))
    return order[:top_t]


def swapped_pair_counts(
    original_counts: np.ndarray,
    sampled_counts: np.ndarray,
    top_t: int,
) -> SwappedPairCounts:
    """Count swapped pairs between original and sampled flow sizes.

    Parameters
    ----------
    original_counts:
        True flow sizes of every flow observed in the bin.  Integer
        input is scored as ``int64`` (without a copy when it already
        is), anything else as ``float64``.
    sampled_counts:
        Sampled sizes of the same flows (0 when the flow was missed).
    top_t:
        Number of top flows of interest, at least 1.  When the bin holds
        fewer than ``top_t`` flows, all of them are treated as top flows.

    Returns
    -------
    SwappedPairCounts
        ``ranking`` counts pairs (true top flow, any other flow);
        ``detection`` counts pairs (true top flow, flow outside the true
        top list).  An empty bin counts zero of both.

    Raises
    ------
    ValueError
        When ``top_t < 1``, the arrays are not 1-D of equal length, a
        size is NaN or infinite, an original size is not positive or a
        sampled size is negative.
    """
    if top_t < 1:
        raise ValueError(f"top_t must be at least 1, got {top_t}")
    original, sampled = _checked_sizes(original_counts, sampled_counts)
    if original.size == 0:
        return SwappedPairCounts(ranking=0, detection=0, top_t=0, num_flows=0)
    t = min(int(top_t), original.size)

    top = true_top_indices(original, t)
    top_mask = np.zeros(original.size, dtype=bool)
    top_mask[top] = True

    total_swapped = 0  # pairs (top flow, any flow), ordered
    top_top_swapped = 0  # pairs (top flow, top flow), ordered (counted twice)
    for i in top:
        o_i = original[i]
        s_i = sampled[i]
        different = original != o_i
        swapped_diff = np.where(original < o_i, sampled >= s_i, s_i >= sampled)
        swapped_equal = (sampled != s_i) | ((sampled == 0) & (s_i == 0))
        swapped = np.where(different, swapped_diff, swapped_equal)
        swapped[i] = False
        total_swapped += int(swapped.sum())
        top_top_swapped += int(swapped[top_mask].sum())

    return SwappedPairCounts(
        ranking=total_swapped - top_top_swapped // 2,
        detection=total_swapped - top_top_swapped,
        top_t=t,
        num_flows=int(original.size),
    )


def ranking_swapped_pairs(
    original_sizes: Sequence[float] | Mapping[object, float],
    sampled_sizes: Sequence[float] | Mapping[object, float],
    top_t: int,
) -> int:
    """Number of swapped (top flow, any other flow) pairs — ranking metric.

    This is the quantity whose expectation the analytical
    :class:`~repro.core.ranking.RankingModel` computes; the total number
    of pairs considered is ``(2N - t - 1) * t / 2``.  Sizes are checked
    as in :func:`swapped_pair_counts`.
    """
    original, sampled = _as_aligned_arrays(original_sizes, sampled_sizes)
    return swapped_pair_counts(original, sampled, _validate(original, top_t)).ranking


def detection_swapped_pairs(
    original_sizes: Sequence[float] | Mapping[object, float],
    sampled_sizes: Sequence[float] | Mapping[object, float],
    top_t: int,
) -> int:
    """Number of swapped (top flow, non-top flow) pairs — detection metric.

    The total number of pairs considered is ``t * (N - t)``.  Sizes are
    checked as in :func:`swapped_pair_counts`.
    """
    original, sampled = _as_aligned_arrays(original_sizes, sampled_sizes)
    return swapped_pair_counts(original, sampled, _validate(original, top_t)).detection


@dataclass(frozen=True)
class RankQualityReport:
    """Bundle of rank-quality indicators for one (original, sampled) pair."""

    top_t: int
    ranking_swapped_pairs: int
    detection_swapped_pairs: int
    top_set_overlap: float
    exact_order_match: bool
    mean_rank_displacement: float


def top_set_overlap(
    original_sizes: Sequence[float] | Mapping[object, float],
    sampled_sizes: Sequence[float] | Mapping[object, float],
    top_t: int,
) -> float:
    """Fraction of the true top-t flows present in the sampled top-t list."""
    original, sampled = _as_aligned_arrays(original_sizes, sampled_sizes)
    t = _validate(original, top_t)
    original, sampled = _checked_sizes(original, sampled)
    true_top = set(int(i) for i in true_top_indices(original, t))
    sampled_top = set(int(i) for i in true_top_indices(sampled + 1e-12, t))
    return len(true_top & sampled_top) / t


def rank_quality_report(
    original_sizes: Sequence[float] | Mapping[object, float],
    sampled_sizes: Sequence[float] | Mapping[object, float],
    top_t: int,
) -> RankQualityReport:
    """Compute all rank-quality indicators at once."""
    original, sampled = _as_aligned_arrays(original_sizes, sampled_sizes)
    t = _validate(original, top_t)
    counts = swapped_pair_counts(original, sampled, t)
    overlap = top_set_overlap(original, sampled, t)

    true_top = true_top_indices(original, t)
    sampled_order = np.lexsort((np.arange(sampled.size), -sampled))
    sampled_rank_of = {int(idx): rank for rank, idx in enumerate(sampled_order)}
    displacements = [abs(sampled_rank_of[int(idx)] - rank) for rank, idx in enumerate(true_top)]
    exact = bool(all(sampled_rank_of[int(idx)] == rank for rank, idx in enumerate(true_top)))
    return RankQualityReport(
        top_t=t,
        ranking_swapped_pairs=counts.ranking,
        detection_swapped_pairs=counts.detection,
        top_set_overlap=overlap,
        exact_order_match=exact,
        mean_rank_displacement=float(np.mean(displacements)),
    )


__all__ = [
    "SwappedPairCounts",
    "swapped_pair_counts",
    "ranking_swapped_pairs",
    "detection_swapped_pairs",
    "top_set_overlap",
    "rank_quality_report",
    "RankQualityReport",
    "true_top_indices",
]
