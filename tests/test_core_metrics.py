"""Tests for the empirical swapped-pair metrics and their one scorer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.metrics import (
    detection_swapped_pairs,
    rank_quality_report,
    ranking_swapped_pairs,
    swapped_pair_counts,
    top_set_overlap,
    true_top_indices,
)

#: Every public entry point that takes (original, sampled, top_t).
METRIC_ENTRY_POINTS = [
    swapped_pair_counts,
    ranking_swapped_pairs,
    detection_swapped_pairs,
    rank_quality_report,
    top_set_overlap,
]


class TestTrueTopIndices:
    def test_selects_largest(self):
        original = np.array([5.0, 50.0, 10.0, 40.0])
        np.testing.assert_array_equal(true_top_indices(original, 2), [1, 3])

    def test_ties_broken_by_index(self):
        original = np.array([10.0, 20.0, 20.0])
        np.testing.assert_array_equal(true_top_indices(original, 2), [1, 2])


class TestRankingSwappedPairs:
    def test_perfect_sampling_no_swaps(self):
        original = [100, 80, 60, 40, 20]
        assert ranking_swapped_pairs(original, original, top_t=3) == 0

    def test_single_adjacent_swap_counts_one(self):
        original = [100, 80, 60, 40, 20]
        sampled = [100, 59, 60, 40, 20]  # flows 1 and 2 swapped
        assert ranking_swapped_pairs(original, sampled, top_t=3) == 1

    def test_swap_with_distant_flow_counts_many(self):
        """The metric penalises a swap with a distant flow more (Section 5.1)."""
        original = [100, 80, 60, 40, 20]
        sampled_near = [100, 59, 60, 40, 20]
        sampled_far = [100, 10, 60, 40, 20]  # flow 1 dropped below everything
        near = ranking_swapped_pairs(original, sampled_near, top_t=3)
        far = ranking_swapped_pairs(original, sampled_far, top_t=3)
        assert far > near

    def test_all_flows_lost_counts_all_pairs(self):
        original = [10, 8, 6, 4]
        sampled = [0, 0, 0, 0]
        n, t = 4, 2
        assert ranking_swapped_pairs(original, sampled, top_t=t) == (2 * n - t - 1) * t // 2

    def test_mapping_inputs_align_by_key(self):
        original = {"a": 100, "b": 50, "c": 10}
        sampled = {"a": 9, "b": 11}  # c missing -> 0
        assert ranking_swapped_pairs(original, sampled, top_t=1) == 1

    def test_mapping_requires_mapping_on_both_sides(self):
        with pytest.raises(TypeError):
            ranking_swapped_pairs({"a": 1.0, "b": 2.0}, [1.0, 2.0], top_t=1)

    def test_equal_original_sizes_count_when_sampled_differ(self):
        original = [10, 10, 1]
        sampled = [3, 5, 0]
        assert ranking_swapped_pairs(original, sampled, top_t=2) >= 1

    def test_rejects_bad_top_t(self):
        with pytest.raises(ValueError):
            ranking_swapped_pairs([1, 2], [1, 2], top_t=0)
        with pytest.raises(ValueError):
            ranking_swapped_pairs([1, 2], [1, 2], top_t=3)

    def test_rejects_non_positive_original_sizes(self):
        with pytest.raises(ValueError):
            ranking_swapped_pairs([1, 0], [1, 0], top_t=1)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ranking_swapped_pairs([1, 2, 3], [1, 2], top_t=1)


class TestDetectionSwappedPairs:
    def test_zero_when_top_set_preserved(self):
        original = [100, 80, 5, 4, 3]
        sampled = [40, 90, 2, 1, 0]  # top-2 order flipped but set intact
        assert detection_swapped_pairs(original, sampled, top_t=2) == 0
        assert ranking_swapped_pairs(original, sampled, top_t=2) >= 1

    def test_counts_when_outsider_overtakes(self):
        original = [100, 80, 5, 4, 3]
        sampled = [100, 2, 5, 4, 3]  # flow 1 falls below three outsiders
        assert detection_swapped_pairs(original, sampled, top_t=2) == 3

    def test_bounded_by_pair_budget(self):
        original = [10, 9, 8, 7, 6, 5]
        sampled = [0, 0, 0, 0, 0, 0]
        t, n = 3, 6
        assert detection_swapped_pairs(original, sampled, top_t=t) == t * (n - t)

    def test_detection_never_exceeds_ranking(self, rng):
        for _ in range(20):
            original = rng.integers(1, 200, size=30)
            sampled = rng.binomial(original, 0.1)
            ranking = ranking_swapped_pairs(original, sampled, top_t=5)
            detection = detection_swapped_pairs(original, sampled, top_t=5)
            assert detection <= ranking


class TestAuxiliaryMetrics:
    def test_top_set_overlap_perfect(self):
        original = [100, 80, 60, 40]
        assert top_set_overlap(original, original, top_t=2) == 1.0

    def test_top_set_overlap_partial(self):
        original = [100, 80, 60, 40]
        sampled = [100, 0, 60, 40]
        assert top_set_overlap(original, sampled, top_t=2) == 0.5  # reprolint: disable=float-eq -- 1/2 is exact

    def test_rank_quality_report_fields(self):
        original = [100, 80, 60, 40, 20]
        sampled = [50, 40, 30, 20, 10]
        report = rank_quality_report(original, sampled, top_t=3)
        assert report.top_t == 3
        assert report.exact_order_match
        assert report.ranking_swapped_pairs == 0
        assert report.mean_rank_displacement == 0.0

    def test_rank_quality_report_detects_disorder(self):
        original = [100, 80, 60, 40, 20]
        sampled = [1, 80, 60, 40, 20]
        report = rank_quality_report(original, sampled, top_t=3)
        assert not report.exact_order_match
        assert report.ranking_swapped_pairs > 0
        assert report.mean_rank_displacement > 0


class TestHostileInput:
    """Hostile sizes and top-t values fail at the metric boundary, naming the argument."""

    @pytest.mark.parametrize("entry_point", METRIC_ENTRY_POINTS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        ("original", "sampled", "argument"),
        [
            ([5.0, math.nan, 3.0], [1.0, 2.0, 0.0], "original"),
            ([5.0, math.inf, 3.0], [1.0, 2.0, 0.0], "original"),
            ([5.0, 4.0, 3.0], [1.0, math.nan, 0.0], "sampled"),
            ([5, 4, 3], [1, math.inf, 0], "sampled"),
            ([5, 4, 3], [1, -math.inf, 0], "sampled"),
            ([5, 4, 3], [-1, 0, 0], "sampled"),
            ([5, 0, 3], [1, 0, 0], "original"),
        ],
        ids=[
            "nan-original",
            "inf-original",
            "nan-sampled",
            "inf-sampled",
            "neg-inf-sampled",
            "negative-sampled",
            "zero-original",
        ],
    )
    def test_hostile_sizes_raise(self, entry_point, original, sampled, argument):
        with pytest.raises(ValueError, match=argument):
            entry_point(original, sampled, 1)

    @pytest.mark.parametrize("top_t", [0, -5])
    def test_scorer_rejects_top_t_below_one(self, top_t):
        with pytest.raises(ValueError, match="top_t"):
            swapped_pair_counts(np.array([5, 4, 3]), np.array([1, 1, 1]), top_t)

    def test_non_integer_sizes_are_not_truncated(self):
        """2.5 and 2.7 stay distinct: the top flow 2.7 ties 2.5 when sampled, a swap."""
        counts = swapped_pair_counts([2.5, 2.7, 1.0], [1.0, 1.0, 0.0], 1)
        assert counts.ranking == 1
        assert ranking_swapped_pairs([2.5, 2.7, 1.0], [1.0, 1.0, 0.0], 1) == 1
