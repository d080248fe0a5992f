"""Reference swapped-pair metrics: double loops, and a loop over top flows.

:func:`reference_ranking_swapped_pairs` and
:func:`reference_detection_swapped_pairs` state the paper's metrics pair
by pair, in plain Python.  :func:`reference_swapped_pair_counts` is the
library's earlier scorer: one stream at a time, a loop over the top
flows with full-length NumPy comparisons for each.  The library scores
every stream of a bin in one call
(:func:`repro.core.metrics.swapped_pair_counts`); the test suite checks
it row by row against both, on integer, non-integer and tie-heavy sizes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.metrics import SwappedPairCounts


def pair_swapped(original_a: float, original_b: float, sampled_a: float, sampled_b: float) -> bool:
    """Whether the pair is swapped, following the paper's conventions."""
    if original_a == original_b:
        return sampled_a != sampled_b or (sampled_a == 0 and sampled_b == 0)
    if original_a > original_b:
        original_a, original_b = original_b, original_a
        sampled_a, sampled_b = sampled_b, sampled_a
    # Now a is the originally smaller flow.
    return sampled_a >= sampled_b


def _top(original: Sequence[float], top_t: int) -> list[int]:
    """The true top-t flows, largest first, ties broken by index."""
    order = sorted(range(len(original)), key=lambda i: (-original[i], i))
    return order[:top_t]


def reference_ranking_swapped_pairs(
    original: Sequence[float], sampled: Sequence[float], top_t: int
) -> int:
    """Swapped (top flow, any other flow) pairs; a top-top pair counts once."""
    top = _top(original, top_t)
    swapped = 0
    for position, i in enumerate(top):
        for j in range(len(original)):
            # Skip i itself and top flows earlier in the list (already paired).
            if j in top[: position + 1]:
                continue
            swapped += pair_swapped(original[i], original[j], sampled[i], sampled[j])
    return swapped


def reference_detection_swapped_pairs(
    original: Sequence[float], sampled: Sequence[float], top_t: int
) -> int:
    """Swapped (top flow, flow outside the top list) pairs."""
    top = _top(original, top_t)
    swapped = 0
    for i in top:
        for j in range(len(original)):
            if j in top:
                continue
            swapped += pair_swapped(original[i], original[j], sampled[i], sampled[j])
    return swapped


def reference_swapped_pair_counts(
    original: Sequence[float] | np.ndarray, sampled: Sequence[float] | np.ndarray, top_t: int
) -> SwappedPairCounts:
    """Both counts of one stream, looping over the top flows.

    Takes 1-D sizes; like the library, a bin with fewer than ``top_t``
    flows ranks all of them and an empty bin counts zero.  Sizes are not
    validated.
    """
    original = np.asarray(original)
    sampled = np.asarray(sampled)
    if original.size == 0:
        return SwappedPairCounts(ranking=0, detection=0, top_t=0, num_flows=0)
    t = min(top_t, original.size)
    top = np.lexsort((np.arange(original.size), -original))[:t]
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
