"""Trace-driven sampling simulation substrate (Section 8 of the paper)."""

from .binning import BinLayout, build_bin_layouts
from .evaluation import (
    SwappedPairCounts,
    detection_pair_budget,
    ranking_pair_budget,
    swapped_pair_counts,
)
from .results import MetricSeries, SimulationResult

__all__ = [
    "BinLayout",
    "build_bin_layouts",
    "SwappedPairCounts",
    "swapped_pair_counts",
    "ranking_pair_budget",
    "detection_pair_budget",
    "MetricSeries",
    "SimulationResult",
]
