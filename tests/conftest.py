"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from oracles.keys import FiveTuple

from repro.core.flow_size_model import FlowPopulation
from repro.distributions import DiscreteFlowSizes, ParetoFlowSizes
from repro.pipeline import parallel
from repro.traces.synthetic import SyntheticTraceGenerator, sprint_like_config


@pytest.fixture(autouse=True)
def _close_warm_workers():
    """Stop the process backend's idle workers after every test.

    A warm worker runs the code it was forked with, so a test that
    patches a sampler must never meet workers another test left idle.
    """
    yield
    parallel._close_idle_pool()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def pareto_five_tuple() -> ParetoFlowSizes:
    """Pareto distribution with the paper's 5-tuple mean flow size."""
    return ParetoFlowSizes.from_mean(mean=9.6, shape=1.5)


@pytest.fixture
def small_population(pareto_five_tuple: ParetoFlowSizes) -> FlowPopulation:
    """A small flow population that keeps model evaluations fast."""
    return FlowPopulation.from_distribution(
        pareto_five_tuple, total_flows=5_000, grid_points=150
    )


@pytest.fixture
def paper_population(pareto_five_tuple: ParetoFlowSizes) -> FlowPopulation:
    """The paper's 5-tuple population (N = 0.7M flows)."""
    return FlowPopulation.from_distribution(
        pareto_five_tuple, total_flows=700_000, grid_points=250
    )


@pytest.fixture
def discrete_population() -> FlowPopulation:
    """A tiny discrete flow-size population for exact-model cross-checks."""
    distribution = DiscreteFlowSizes(
        sizes=[1, 2, 5, 10, 20, 50, 100],
        probabilities=[0.40, 0.25, 0.15, 0.10, 0.05, 0.03, 0.02],
    )
    return FlowPopulation.from_grid(distribution.discretize(), total_flows=200, distribution=distribution)


@pytest.fixture
def sample_five_tuple() -> FiveTuple:
    """A representative 5-tuple."""
    return FiveTuple.from_strings("192.168.1.10", "10.20.30.40", 40000, 443)


@pytest.fixture(scope="session")
def small_trace():
    """A small synthetic Sprint-like trace shared across trace tests."""
    config = sprint_like_config(scale=0.005, duration=300.0)
    return SyntheticTraceGenerator(config).generate(rng=7)
