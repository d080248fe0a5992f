"""Reference swapped-pair metrics: explicit double loops over flow pairs.

:func:`reference_ranking_swapped_pairs` and
:func:`reference_detection_swapped_pairs` state the paper's metrics pair
by pair, in plain Python.  The library counts both with one scorer that
loops only over the top flows (:func:`repro.core.metrics.swapped_pair_counts`);
the test suite checks the two agree on integer, non-integer and
tie-heavy sizes.
"""

from __future__ import annotations

from collections.abc import Sequence


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
