"""Empirical ranking and detection metrics on observed flow lists.

The analytical models of Sections 5-7 predict the *average* number of
swapped flow pairs; the trace-driven simulations of Section 8 measure
the same quantity on concrete (original, sampled) flow size lists.  This
module implements that measurement, plus a few auxiliary rank-quality
metrics that are useful in practice even though they do not appear in
the paper (top-t set overlap, rank displacement).

One scorer, :func:`swapped_pair_counts`, counts both metrics at once
with NumPy, for one sampled size list or for every row of a
``(streams, flows)`` matrix, without temporaries larger than that input
(its notes give the method).  The pipeline executor scores each closed
bin, all streams at once, with one call, and
:func:`ranking_swapped_pairs`, :func:`detection_swapped_pairs` and
:func:`rank_quality_report` are thin wrappers around it.  The explicit
pair-by-pair double loops and the earlier per-stream loop over top flows
survive as the test oracles in ``tests/oracles/metrics.py``.

Conventions (matching the analytical model):

* a pair is formed by one flow of the *true* top-t list and one other
  flow of the original traffic (for the ranking metric) or one flow
  outside the true top-t list (for the detection metric);
* a pair of flows with different original sizes is swapped when the
  originally smaller flow has a sampled size at least as large as the
  originally bigger flow's sampled size;
* a pair of flows with equal original sizes is swapped when their
  sampled sizes differ, or when both are zero.

Hostile input fails here, at the metric boundary: NaN or infinite sizes,
non-positive original sizes and negative sampled sizes raise
:class:`ValueError`, as does a ``top_t`` below 1; a ``top_t`` that is not
an integer raises :class:`TypeError`.
"""

from __future__ import annotations

import operator
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


def _checked_top_t(top_t: int) -> int:
    """``top_t`` as an ``int`` of at least 1.

    A non-integer ``top_t`` (``2.5``) raises :class:`TypeError` instead of
    being rounded down, and ``top_t < 1`` raises :class:`ValueError`.
    """
    try:
        t = operator.index(top_t)
    except TypeError:
        raise TypeError(f"top_t must be an integer, got {top_t!r}") from None
    if t < 1:
        raise ValueError(f"top_t must be at least 1, got {top_t!r}")
    return t


def _validate(original: np.ndarray, top_t: int) -> int:
    if original.ndim != 1:
        raise ValueError("flow sizes must form a 1-D array")
    if original.size < 2:
        raise ValueError("at least two flows are required")
    t = _checked_top_t(top_t)
    if t > original.size:
        raise ValueError(f"top_t must be between 1 and the number of flows, got {top_t}")
    return t


@dataclass(frozen=True)
class SwappedPairCounts:
    """Ranking and detection swapped-pair counts of one bin.

    ``ranking`` and ``detection`` are ``int`` for one sampled size list
    and ``int64`` arrays with one entry per stream for a ``(streams,
    flows)`` matrix.
    """

    ranking: int | np.ndarray
    detection: int | np.ndarray
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
    """Original sizes (1-D) and sampled sizes (1-D or one row per stream).

    Hostile values are rejected in every row.
    """
    original = _sizes(original_counts, "original")
    sampled = _sizes(sampled_counts, "sampled")
    if original.ndim != 1 or sampled.ndim not in (1, 2) or sampled.shape[-1] != original.size:
        raise ValueError(
            "original counts must be a 1-D array and sampled counts a 1-D or "
            "(streams, flows) array with one column per original count"
        )
    if original.size and not original.min() > 0:
        raise ValueError("original sizes must be positive")
    if sampled.size and sampled.min() < 0:
        raise ValueError("sampled sizes must be non-negative")
    return original, sampled


def true_top_indices(original_sizes: np.ndarray, top_t: int) -> np.ndarray:
    """Indices of the true top-t flows (ties broken by index for determinism)."""
    t = _checked_top_t(top_t)
    order = np.lexsort((np.arange(original_sizes.size), -original_sizes))
    return order[:t]


def _far_swapped(far_rows: np.ndarray, top_rows: np.ndarray) -> np.ndarray:
    """Per row, the (top flow, far flow) pairs whose far sampled size is >= the top one's.

    Sorts ``far_rows`` in place, then counts the far sizes below every
    top size with one ``searchsorted`` per row.
    """
    far_rows.sort(axis=1)
    below = [np.searchsorted(row, tops).sum() for row, tops in zip(far_rows, top_rows)]
    return far_rows.shape[1] * top_rows.shape[1] - np.array(below, dtype=np.int64)


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
        Sampled sizes of the same flows (0 when the flow was missed):
        one list, or a ``(streams, flows)`` matrix holding one sampled
        stream per row, each scored against the same original sizes.
    top_t:
        Number of top flows of interest, an integer of at least 1.  When
        the bin holds fewer than ``top_t`` flows, all of them are
        treated as top flows.

    Returns
    -------
    SwappedPairCounts
        ``ranking`` counts pairs (true top flow, any other flow);
        ``detection`` counts pairs (true top flow, flow outside the true
        top list).  Both are ``int`` for 1-D ``sampled_counts`` and
        ``int64`` arrays with one entry per row for a matrix.  An empty
        bin counts zero of both.

    Raises
    ------
    TypeError
        When ``top_t`` is not an integer.
    ValueError
        When ``top_t < 1``, the arrays are not aligned, a size is NaN or
        infinite, an original size is not positive or a sampled size is
        negative (in any row).

    Notes
    -----
    The top list is sorted once per bin.  Flows strictly smaller than
    the smallest top flow ("far" flows, nearly all of them) are swapped
    with top flow ``i`` exactly when their sampled size is at least
    ``i``'s, so each stream's far row is sorted once and
    ``searchsorted`` counts them for all top flows together.  Pairs of a
    top flow with a later top flow or with a flow tied with the smallest
    top size keep the exact pair rule; that block is evaluated a few top
    flows at a time, so no temporary holds more elements than
    ``sampled_counts``.
    """
    t = _checked_top_t(top_t)
    original, sampled = _checked_sizes(original_counts, sampled_counts)
    rows = sampled if sampled.ndim == 2 else sampled[np.newaxis]
    num_flows = original.size
    if num_flows == 0:
        empty = np.zeros(rows.shape[0], dtype=np.int64)
        return _packaged(sampled, empty, empty, 0, 0)
    t = min(t, num_flows)

    top = true_top_indices(original, t)
    far = original < original[top[-1]]
    near = ~far
    near[top] = False
    # The block: the top flows, then the near flows (tied with the
    # smallest top size).  Sizes never increase along it.
    block = np.concatenate([top, np.flatnonzero(near)])
    block_rows = rows.take(block, axis=1)
    block_sizes = original[block]
    # A far flow is smaller than every top flow: swapped with top flow i
    # exactly when its sampled size is >= s_i.
    detection = _far_swapped(rows.compress(far, axis=1), block_rows[:, :t])

    # The exact pair rule on (top flow, later block flow) pairs.
    top_top = np.zeros(rows.shape[0], dtype=np.int64)
    # ``step`` top flows at a time: no temporary outgrows the input.
    step = max(1, num_flows // block.size)
    for first in range(0, t, step):
        stop = min(first + step, t)
        mine = block_rows[:, first:stop, np.newaxis]
        theirs = block_rows[:, np.newaxis, first:]
        tied = block_sizes[np.newaxis, first:] == block_sizes[first:stop, np.newaxis]
        swapped = np.where(tied, (theirs != mine) | (mine == 0), theirs >= mine)
        swapped &= np.arange(first, block.size) > np.arange(first, stop)[:, np.newaxis]
        top_top += np.count_nonzero(swapped[:, :, : t - first], axis=(1, 2))
        detection += np.count_nonzero(swapped[:, :, t - first :], axis=(1, 2))
    return _packaged(sampled, detection + top_top, detection, t, num_flows)


def _packaged(
    sampled: np.ndarray, ranking: np.ndarray, detection: np.ndarray, top_t: int, num_flows: int
) -> SwappedPairCounts:
    """Per-row counts as :class:`SwappedPairCounts`: scalars for 1-D ``sampled``."""
    if sampled.ndim == 1:
        return SwappedPairCounts(int(ranking[0]), int(detection[0]), top_t, num_flows)
    return SwappedPairCounts(ranking, detection, top_t, num_flows)


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
    return int(swapped_pair_counts(original, sampled, _validate(original, top_t)).ranking)


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
    return int(swapped_pair_counts(original, sampled, _validate(original, top_t)).detection)


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
        ranking_swapped_pairs=int(counts.ranking),
        detection_swapped_pairs=int(counts.detection),
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
