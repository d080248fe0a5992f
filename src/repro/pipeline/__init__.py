"""Composable experiment pipeline: source -> sampler -> flow accounting -> evaluator.

This package is the one public way to run any experiment of the
reproduction.  See :class:`Pipeline` for the facade,
:mod:`repro.traces.source` for the streaming :class:`PacketSource`
abstraction the executor consumes, :mod:`repro.scenarios` for the named
workloads, :mod:`repro.registry` for the string-keyed component
registries, :mod:`repro.pipeline.executor` for the streaming execution
engine, and :mod:`repro.pipeline.parallel` for the multi-process
dispatch of the independent (sampler, run) cells.
"""

from .executor import StreamOutcome, run_monitor_stream, run_stream
from .parallel import BACKENDS, Cell, ExecutionPlan
from .pipeline import Pipeline, SamplerSpec
from .result import MetricSeries, PipelineResult, SamplerSummary

__all__ = [
    "Pipeline",
    "SamplerSpec",
    "PipelineResult",
    "SamplerSummary",
    "MetricSeries",
    "run_stream",
    "run_monitor_stream",
    "StreamOutcome",
    "BACKENDS",
    "Cell",
    "ExecutionPlan",
]
