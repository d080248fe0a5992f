"""Flow size distributions used by the ranking and detection models."""

from .base import DiscretizedFlowSizes, FlowSizeDistribution
from .discrete import DiscreteFlowSizes
from .empirical import EmpiricalFlowSizes
from .exponential import ExponentialFlowSizes
from .lognormal import LognormalFlowSizes
from .pareto import ParetoFlowSizes
from .sqrt_condition import SqrtConditionReport, check_sqrt_condition
from .weibull import WeibullFlowSizes

__all__ = [
    "FlowSizeDistribution",
    "DiscretizedFlowSizes",
    "ParetoFlowSizes",
    "ExponentialFlowSizes",
    "LognormalFlowSizes",
    "WeibullFlowSizes",
    "DiscreteFlowSizes",
    "EmpiricalFlowSizes",
    "check_sqrt_condition",
    "SqrtConditionReport",
]
