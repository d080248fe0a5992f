"""repro — reproduction of "Ranking flows from sampled traffic".

A library for studying how well the largest flows on a network link can
be detected and ranked from packet-sampled traffic, reproducing the
models and experiments of Barakat, Iannaccone and Diot (2004/2005).

Subpackages
-----------
``repro.core``
    Analytical misranking / ranking / detection models and the
    empirical swapped-pair metrics (one scorer, ``swapped_pair_counts``).
``repro.distributions``
    Flow size distributions (Pareto, lognormal, empirical, ...).
``repro.flows``
    Flow keys, packets and the columnar flow-accounting engine.
``repro.sampling``
    Packet and flow samplers (Bernoulli, periodic, flow-hash,
    sample-and-hold).
``repro.traces``
    Synthetic flow-level and packet-level traces, and the streaming
    ``PacketSource`` abstraction the pipeline executes.
``repro.scenarios``
    Named workload scenarios (steady, diurnal, burst, churn,
    multilink) composed from packet sources.
``repro.experiments``
    Drivers that regenerate each figure of the paper.
``repro.pipeline``
    The composable, streaming experiment pipeline — the one public way
    to run any experiment, including the trace-driven simulations of
    Section 8 — and its one result model, ``PipelineResult``.
``repro.registry``
    String-keyed registries of samplers, key policies, distributions and
    trace generators.
``repro.store``
    Persistent, content-addressed store of pipeline results (the cache
    behind incremental sweeps).
``repro.sweep``
    Resumable sweep orchestration: declarative grids executed through
    the pipeline backends, skipping store hits.
``repro.analysis``
    The ``reprolint`` AST contract linter: static rules enforcing the
    determinism, picklability and cache-key invariants the other
    subsystems rely on (``repro lint``).  ``import repro`` does not load
    it; import ``repro.analysis`` by name.
``repro.telemetry``
    Process-local observability: counters, gauges, histograms and
    timing spans with a zero-overhead off-switch, deterministic
    cross-process merging, and the multi-subscriber event bus behind
    ``RunStore.events``.

Quickstart
----------
>>> from repro import Pipeline
>>> result = (
...     Pipeline()
...     .with_trace("sprint", scale=0.002, duration=300.0)
...     .with_sampler("bernoulli", rate=0.5)
...     .with_seed(0)
...     .run()
... )
>>> result.series("ranking", 0.5).num_runs
5
"""

__version__ = "2.0.0"

from . import telemetry
from .core import (
    DetectionModel,
    FlowPopulation,
    RankingModel,
    misranking_probability_exact,
    misranking_probability_gaussian,
    optimal_sampling_rate,
    required_sampling_rate,
)
from .distributions import ParetoFlowSizes
from .pipeline import Pipeline, PipelineResult
from .registry import DISTRIBUTIONS, KEY_POLICIES, SAMPLERS, TRACES, parse_spec
from .scenarios import SCENARIOS
from .store import RunSpec, RunStore, store_key
from .sweep import SweepGrid, run_sweep

__all__ = [
    "__version__",
    "telemetry",
    "misranking_probability_exact",
    "misranking_probability_gaussian",
    "optimal_sampling_rate",
    "FlowPopulation",
    "RankingModel",
    "DetectionModel",
    "required_sampling_rate",
    "ParetoFlowSizes",
    "Pipeline",
    "PipelineResult",
    "SAMPLERS",
    "KEY_POLICIES",
    "DISTRIBUTIONS",
    "TRACES",
    "SCENARIOS",
    "parse_spec",
    "RunSpec",
    "RunStore",
    "store_key",
    "SweepGrid",
    "run_sweep",
]
