"""Core analytical models of the paper.

This subpackage implements the paper's primary contribution:

* the exact and Gaussian pairwise misranking probabilities (Sections 3-4);
* the optimal sampling rate for a pair of flows (Figures 1-2);
* the top-t ranking model and its swapped-pairs metric (Sections 5-6);
* the top-t detection model (Section 7);
* empirical counterparts of the metrics for trace-driven validation;
* required-sampling-rate planning built on top of the models.

The models import SciPy where they first call it, so importing
:mod:`repro` and running the pipeline need only NumPy.
"""

from .detection import DetectionAccuracy, DetectionModel
from .flow_size_model import FlowPopulation
from .gaussian import (
    GaussianErrorSurface,
    gaussian_absolute_error,
    gaussian_error_surface,
    misranking_matrix_gaussian,
    misranking_probability_gaussian,
)
from .metrics import (
    RankQualityReport,
    detection_swapped_pairs,
    rank_quality_report,
    ranking_swapped_pairs,
    top_set_overlap,
    true_top_indices,
)
from .misranking import (
    minimum_misranking_probability,
    misranking_matrix_exact,
    misranking_probability_equal_sizes,
    misranking_probability_exact,
    probability_larger_flow_sampled,
)
from .optimal_rate import (
    PAPER_TARGET_MISRANKING,
    OptimalRateSurface,
    optimal_rate_surface,
    optimal_sampling_rate,
)
from .ranking import RankingAccuracy, RankingModel
from .rate_planning import RatePlan, ranking_vs_detection_gain, required_sampling_rate

__all__ = [
    "misranking_probability_exact",
    "misranking_probability_equal_sizes",
    "minimum_misranking_probability",
    "misranking_matrix_exact",
    "probability_larger_flow_sampled",
    "misranking_probability_gaussian",
    "misranking_matrix_gaussian",
    "gaussian_absolute_error",
    "gaussian_error_surface",
    "GaussianErrorSurface",
    "optimal_sampling_rate",
    "optimal_rate_surface",
    "OptimalRateSurface",
    "PAPER_TARGET_MISRANKING",
    "FlowPopulation",
    "RankingModel",
    "RankingAccuracy",
    "DetectionModel",
    "DetectionAccuracy",
    "ranking_swapped_pairs",
    "detection_swapped_pairs",
    "top_set_overlap",
    "rank_quality_report",
    "RankQualityReport",
    "true_top_indices",
    "required_sampling_rate",
    "ranking_vs_detection_gain",
    "RatePlan",
]
