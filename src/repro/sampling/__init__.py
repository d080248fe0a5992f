"""Packet and flow samplers: the strategies ``SAMPLERS`` registers."""

from .base import PacketSampler
from .bernoulli import BernoulliSampler
from .periodic import PeriodicSampler
from .sample_and_hold import SampleAndHoldSampler
from .stratified import HashFlowSampler

__all__ = [
    "PacketSampler",
    "BernoulliSampler",
    "PeriodicSampler",
    "HashFlowSampler",
    "SampleAndHoldSampler",
]
