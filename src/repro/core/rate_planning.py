"""Required sampling rate planning.

The operational question the paper motivates ("which sampling rate do I
need to configure on my router to trust the reported top-t list?") is
the inverse of the ranking/detection models: given a flow population, a
number of top flows and an accuracy target (by default fewer than one
swapped pair on average), find the minimum packet sampling rate.

Both the ranking and detection metrics are monotone non-increasing in
the sampling rate, so a bisection on ``log10(p)`` is sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .detection import DetectionModel
from .flow_size_model import FlowPopulation
from .ranking import RankingModel

Problem = Literal["ranking", "detection"]


@dataclass(frozen=True)
class RatePlan:
    """Outcome of a required-sampling-rate search.

    Attributes
    ----------
    problem:
        ``"ranking"`` or ``"detection"``.
    top_t:
        Number of top flows of interest.
    total_flows:
        Total number of flows in the measurement interval.
    target_swapped_pairs:
        Accuracy target on the average number of swapped pairs.
    required_rate:
        Minimum sampling rate meeting the target, or ``None`` when even
        full capture cannot meet it.
    achieved_swapped_pairs:
        Metric value at ``required_rate`` (or at rate 1.0 when the target
        is unreachable).
    """

    problem: Problem
    top_t: int
    total_flows: int
    target_swapped_pairs: float
    required_rate: float | None
    achieved_swapped_pairs: float

    @property
    def feasible(self) -> bool:
        """Whether some sampling rate meets the accuracy target."""
        return self.required_rate is not None


def _build_model(
    population: FlowPopulation, top_t: int, problem: Problem
) -> RankingModel | DetectionModel:
    if problem == "ranking":
        return RankingModel(population, top_t)
    if problem == "detection":
        return DetectionModel(population, top_t)
    raise ValueError(f"unknown problem {problem!r}")


def required_sampling_rate(
    population: FlowPopulation,
    top_t: int,
    problem: Problem = "ranking",
    target_swapped_pairs: float = 1.0,
    min_rate: float = 1e-4,
    tolerance: float = 0.02,
    max_iterations: int = 60,
) -> RatePlan:
    """Find the minimum sampling rate meeting a swapped-pairs target.

    Parameters
    ----------
    population:
        Flow population model.
    top_t:
        Number of top flows to rank or detect.
    problem:
        ``"ranking"`` (order must match) or ``"detection"`` (set must
        match).
    target_swapped_pairs:
        Acceptance threshold on the metric (paper uses 1.0).
    min_rate:
        Smallest rate considered (router vendors recommend 0.1%-1%, so
        searching below 0.01% is rarely meaningful).
    tolerance:
        Relative tolerance on the returned rate.
    """
    if not target_swapped_pairs > 0:
        raise ValueError(
            f"target_swapped_pairs must be positive, got {target_swapped_pairs!r}"
        )
    if not 0.0 < min_rate < 1.0:
        raise ValueError("min_rate must be in (0, 1)")
    model = _build_model(population, top_t, problem)

    at_full = model.swapped_pairs(1.0)
    if at_full > target_swapped_pairs:
        return RatePlan(
            problem=problem,
            top_t=model.top_t,
            total_flows=population.total_flows,
            target_swapped_pairs=float(target_swapped_pairs),
            required_rate=None,
            achieved_swapped_pairs=float(at_full),
        )
    if model.swapped_pairs(min_rate) <= target_swapped_pairs:
        return RatePlan(
            problem=problem,
            top_t=model.top_t,
            total_flows=population.total_flows,
            target_swapped_pairs=float(target_swapped_pairs),
            required_rate=float(min_rate),
            achieved_swapped_pairs=float(model.swapped_pairs(min_rate)),
        )

    low = np.log10(min_rate)
    high = 0.0  # log10(1.0)
    for _ in range(max_iterations):
        if 10**high / 10**low <= 1.0 + tolerance:
            break
        mid = 0.5 * (low + high)
        if model.swapped_pairs(10**mid) > target_swapped_pairs:
            low = mid
        else:
            high = mid
    rate = float(10**high)
    return RatePlan(
        problem=problem,
        top_t=model.top_t,
        total_flows=population.total_flows,
        target_swapped_pairs=float(target_swapped_pairs),
        required_rate=rate,
        achieved_swapped_pairs=float(model.swapped_pairs(rate)),
    )


def ranking_vs_detection_gain(
    population: FlowPopulation,
    top_t: int,
    target_swapped_pairs: float = 1.0,
    min_rate: float = 1e-4,
) -> float:
    """Ratio between the required ranking rate and the required detection rate.

    The paper's headline observation is that this gain is roughly an
    order of magnitude.  Returns ``inf`` when ranking is infeasible but
    detection is feasible, and ``nan`` when both are infeasible.
    """
    ranking = required_sampling_rate(
        population, top_t, "ranking", target_swapped_pairs, min_rate=min_rate
    )
    detection = required_sampling_rate(
        population, top_t, "detection", target_swapped_pairs, min_rate=min_rate
    )
    if ranking.required_rate is None and detection.required_rate is None:
        return float("nan")
    if ranking.required_rate is None:
        return float("inf")
    if detection.required_rate is None:
        return float("nan")
    return ranking.required_rate / detection.required_rate


__all__ = ["required_sampling_rate", "ranking_vs_detection_gain", "RatePlan"]
