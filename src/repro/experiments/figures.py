"""Per-figure experiment drivers.

Every figure of the paper's evaluation has a driver function here that
recomputes the data behind the figure and returns it as a
:class:`FigureResult` (analytical figures) or a
:class:`~repro.pipeline.result.PipelineResult` (trace-driven figures,
one Bernoulli sampler per rate).  The benchmark harness in
``benchmarks/`` wraps these drivers and prints the same series the paper
plots.

The trace-driven drivers accept a ``scale`` parameter because the paper
works at backbone scale (tens of millions of packets per trace); the
default scale keeps a laptop run in seconds while preserving the shapes
of all distributions.  EXPERIMENTS.md records the scale used for the
reported numbers.  They also accept ``jobs`` to fan the independent
sampling runs out across worker processes (``repro figure fig12
--jobs 4``); parallel results are bit-identical to serial ones.

Drivers are looked up by figure id in :data:`ANALYTICAL_FIGURES` and
:data:`TRACE_FIGURES`:

>>> sorted(ANALYTICAL_FIGURES)[:3]
['fig01', 'fig02', 'fig03']
>>> sorted(TRACE_FIGURES)
['fig12', 'fig13', 'fig14', 'fig15', 'fig16']
>>> result = figure_03_gaussian_error(num_points=4, max_size=100)
>>> result.figure, result.x_values.size
('fig03', 4)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.detection import DetectionModel
from ..core.flow_size_model import FlowPopulation
from ..core.gaussian import gaussian_error_surface
from ..core.optimal_rate import optimal_rate_surface
from ..core.ranking import RankingModel
from ..pipeline import Pipeline, PipelineResult
from .config import (
    BETA_SWEEP,
    DEFAULT_PARETO_SHAPE,
    DEFAULT_RATE_SWEEP,
    FIVE_TUPLE,
    PREFIX_24,
    TOP_T_SWEEP,
    TOTAL_FLOWS_FACTORS,
    FlowDefinitionParameters,
)

#: Default scale factor of the trace-driven experiments (fraction of the
#: Sprint backbone flow arrival rate).  0.02 keeps a full figure run in
#: tens of seconds on a laptop.
DEFAULT_TRACE_SCALE = 0.02

#: Default number of sampling runs for the trace-driven experiments.
#: The paper uses 30; 10 keeps benchmark runtimes reasonable while still
#: giving a meaningful standard deviation.
DEFAULT_TRACE_RUNS = 10


@dataclass
class FigureResult:
    """Data behind one analytical figure.

    Attributes
    ----------
    figure:
        Paper figure number ("fig04", ...).
    title:
        Short description of what the figure shows.
    x_label, y_label:
        Axis labels (the x axis is the packet sampling rate for the
        metric figures).
    x_values:
        The x axis values.
    series:
        Mapping from line label (e.g. ``"t = 10"``) to y values.
    extra:
        Any additional arrays (e.g. the grid of a surface figure).
    """

    figure: str
    title: str
    x_label: str
    y_label: str
    x_values: np.ndarray
    series: dict[str, np.ndarray] = field(default_factory=dict)
    extra: dict[str, np.ndarray] = field(default_factory=dict)

    def as_rows(self) -> list[dict[str, float | str]]:
        """Flatten the series into printable rows."""
        rows: list[dict[str, float | str]] = []
        for label, values in self.series.items():
            for x, y in zip(self.x_values, values):
                rows.append({"figure": self.figure, "series": label, "x": float(x), "y": float(y)})
        return rows


# ----------------------------------------------------------------------
# Figures 1-3: pairwise model
# ----------------------------------------------------------------------
def figure_01_optimal_rate_log(
    num_points: int = 30,
    max_size: int = 1000,
    target: float = 1e-3,
) -> FigureResult:
    """Fig. 1 — optimal sampling rate surface on a log-spaced size grid."""
    sizes = np.unique(np.round(np.logspace(0, np.log10(max_size), num_points)).astype(int))
    surface = optimal_rate_surface(sizes.astype(float), target=target, method="gaussian")
    return FigureResult(
        figure="fig01",
        title="Optimal sampling rate (log scale grid), target Pm = 0.1%",
        x_label="flow size S1 (packets)",
        y_label="optimal sampling rate (%)",
        x_values=sizes.astype(float),
        series={"diagonal (S1 = S2)": surface.diagonal() * 100.0},
        extra={"sizes": sizes.astype(float), "rates_percent": surface.rates_percent},
    )


def figure_02_optimal_rate_linear(
    num_points: int = 30,
    max_size: int = 1000,
    target: float = 1e-3,
) -> FigureResult:
    """Fig. 2 — optimal sampling rate surface on a linear size grid."""
    sizes = np.unique(np.linspace(1, max_size, num_points).round().astype(int))
    surface = optimal_rate_surface(sizes.astype(float), target=target, method="gaussian")
    # The paper reads this figure through fixed-gap slices (S2 = S1 + k):
    # the required rate *increases* with the absolute sizes.
    gap = max(1, max_size // 20)
    fixed_gap_rates = []
    for size in sizes:
        fixed_gap_rates.append(
            float(
                optimal_rate_surface(
                    np.array([float(size)]), np.array([float(size + gap)]), target=target
                ).rates[0, 0]
            )
        )
    return FigureResult(
        figure="fig02",
        title="Optimal sampling rate (linear grid), target Pm = 0.1%",
        x_label="flow size S1 (packets)",
        y_label="optimal sampling rate (%)",
        x_values=sizes.astype(float),
        series={f"S2 = S1 + {gap} packets": np.asarray(fixed_gap_rates) * 100.0},
        extra={"sizes": sizes.astype(float), "rates_percent": surface.rates_percent},
    )


def figure_03_gaussian_error(
    num_points: int = 25,
    max_size: int = 1000,
    sampling_rate: float = 0.01,
) -> FigureResult:
    """Fig. 3 — absolute error of the Gaussian approximation at p = 1%."""
    sizes = np.unique(np.round(np.logspace(0, np.log10(max_size), num_points)).astype(int))
    surface = gaussian_error_surface(sizes, sampling_rate)
    max_error_per_size = surface.errors.max(axis=1)
    return FigureResult(
        figure="fig03",
        title="Gaussian approximation absolute error, sampling rate 1%",
        x_label="flow size (packets)",
        y_label="max absolute error over partner sizes",
        x_values=sizes.astype(float),
        series={"max error": max_error_per_size},
        extra={"sizes": sizes.astype(float), "errors": surface.errors},
    )


# ----------------------------------------------------------------------
# Figures 4-9: ranking model sweeps
# ----------------------------------------------------------------------
def _ranking_sweep_by_t(
    definition: FlowDefinitionParameters,
    figure: str,
    rates: tuple[float, ...],
    top_t_values: tuple[int, ...],
    shape: float,
) -> FigureResult:
    distribution = definition.pareto(shape)
    population = FlowPopulation.from_distribution(distribution, definition.total_flows)
    result = FigureResult(
        figure=figure,
        title=f"Ranking top-t flows, {definition.name}, N = {definition.total_flows:,}, beta = {shape}",
        x_label="packet sampling rate (%)",
        y_label="average number of swapped flow pairs",
        x_values=np.asarray(rates) * 100.0,
    )
    for top_t in top_t_values:
        model = RankingModel(population, top_t)
        result.series[f"t = {top_t}"] = model.metric_curve(rates)
    return result


def figure_04_ranking_top_t_five_tuple(
    rates: tuple[float, ...] = DEFAULT_RATE_SWEEP,
    top_t_values: tuple[int, ...] = TOP_T_SWEEP,
) -> FigureResult:
    """Fig. 4 — ranking metric vs sampling rate for several t (5-tuple flows)."""
    return _ranking_sweep_by_t(FIVE_TUPLE, "fig04", rates, top_t_values, DEFAULT_PARETO_SHAPE)


def figure_05_ranking_top_t_prefix(
    rates: tuple[float, ...] = DEFAULT_RATE_SWEEP,
    top_t_values: tuple[int, ...] = TOP_T_SWEEP,
) -> FigureResult:
    """Fig. 5 — ranking metric vs sampling rate for several t (/24 prefix flows)."""
    return _ranking_sweep_by_t(PREFIX_24, "fig05", rates, top_t_values, DEFAULT_PARETO_SHAPE)


def _ranking_sweep_by_beta(
    definition: FlowDefinitionParameters,
    figure: str,
    rates: tuple[float, ...],
    betas: tuple[float, ...],
    top_t: int,
) -> FigureResult:
    result = FigureResult(
        figure=figure,
        title=f"Ranking top {top_t} flows, {definition.name}, varying Pareto shape",
        x_label="packet sampling rate (%)",
        y_label="average number of swapped flow pairs",
        x_values=np.asarray(rates) * 100.0,
    )
    for beta in betas:
        population = FlowPopulation.from_distribution(
            definition.pareto(beta), definition.total_flows
        )
        model = RankingModel(population, top_t)
        result.series[f"beta = {beta}"] = model.metric_curve(rates)
    return result


def figure_06_ranking_beta_five_tuple(
    rates: tuple[float, ...] = DEFAULT_RATE_SWEEP,
    betas: tuple[float, ...] = BETA_SWEEP,
    top_t: int = 10,
) -> FigureResult:
    """Fig. 6 — impact of the flow size distribution (5-tuple flows)."""
    return _ranking_sweep_by_beta(FIVE_TUPLE, "fig06", rates, betas, top_t)


def figure_07_ranking_beta_prefix(
    rates: tuple[float, ...] = DEFAULT_RATE_SWEEP,
    betas: tuple[float, ...] = BETA_SWEEP,
    top_t: int = 10,
) -> FigureResult:
    """Fig. 7 — impact of the flow size distribution (/24 prefix flows)."""
    return _ranking_sweep_by_beta(PREFIX_24, "fig07", rates, betas, top_t)


def _ranking_sweep_by_n(
    definition: FlowDefinitionParameters,
    figure: str,
    rates: tuple[float, ...],
    factors: tuple[float, ...],
    top_t: int,
    shape: float,
) -> FigureResult:
    result = FigureResult(
        figure=figure,
        title=f"Ranking top {top_t} flows, {definition.name}, varying total number of flows",
        x_label="packet sampling rate (%)",
        y_label="average number of swapped flow pairs",
        x_values=np.asarray(rates) * 100.0,
    )
    distribution = definition.pareto(shape)
    for factor in factors:
        total = definition.scaled_total_flows(factor)
        population = FlowPopulation.from_distribution(distribution, total)
        model = RankingModel(population, top_t)
        result.series[f"N = {total:,}"] = model.metric_curve(rates)
    return result


def figure_08_ranking_total_flows_five_tuple(
    rates: tuple[float, ...] = DEFAULT_RATE_SWEEP,
    factors: tuple[float, ...] = TOTAL_FLOWS_FACTORS,
    top_t: int = 10,
) -> FigureResult:
    """Fig. 8 — impact of the total number of flows (5-tuple flows)."""
    return _ranking_sweep_by_n(FIVE_TUPLE, "fig08", rates, factors, top_t, DEFAULT_PARETO_SHAPE)


def figure_09_ranking_total_flows_prefix(
    rates: tuple[float, ...] = DEFAULT_RATE_SWEEP,
    factors: tuple[float, ...] = TOTAL_FLOWS_FACTORS,
    top_t: int = 10,
) -> FigureResult:
    """Fig. 9 — impact of the total number of flows (/24 prefix flows)."""
    return _ranking_sweep_by_n(PREFIX_24, "fig09", rates, factors, top_t, DEFAULT_PARETO_SHAPE)


# ----------------------------------------------------------------------
# Figures 10-11: detection model sweeps
# ----------------------------------------------------------------------
def _detection_sweep_by_t(
    definition: FlowDefinitionParameters,
    figure: str,
    rates: tuple[float, ...],
    top_t_values: tuple[int, ...],
    shape: float,
) -> FigureResult:
    distribution = definition.pareto(shape)
    population = FlowPopulation.from_distribution(distribution, definition.total_flows)
    result = FigureResult(
        figure=figure,
        title=f"Detecting top-t flows, {definition.name}, N = {definition.total_flows:,}, beta = {shape}",
        x_label="packet sampling rate (%)",
        y_label="average number of swapped flow pairs",
        x_values=np.asarray(rates) * 100.0,
    )
    for top_t in top_t_values:
        model = DetectionModel(population, top_t)
        result.series[f"t = {top_t}"] = model.metric_curve(rates)
    return result


def figure_10_detection_top_t_five_tuple(
    rates: tuple[float, ...] = DEFAULT_RATE_SWEEP,
    top_t_values: tuple[int, ...] = TOP_T_SWEEP,
) -> FigureResult:
    """Fig. 10 — detection metric vs sampling rate for several t (5-tuple flows)."""
    return _detection_sweep_by_t(FIVE_TUPLE, "fig10", rates, top_t_values, DEFAULT_PARETO_SHAPE)


def figure_11_detection_top_t_prefix(
    rates: tuple[float, ...] = DEFAULT_RATE_SWEEP,
    top_t_values: tuple[int, ...] = TOP_T_SWEEP,
) -> FigureResult:
    """Fig. 11 — detection metric vs sampling rate for several t (/24 prefix flows)."""
    return _detection_sweep_by_t(PREFIX_24, "fig11", rates, top_t_values, DEFAULT_PARETO_SHAPE)


# ----------------------------------------------------------------------
# Figures 12-16: trace-driven simulations
# ----------------------------------------------------------------------
def _trace_simulation(
    prefix_flows: bool,
    bin_duration: float,
    scale: float,
    num_runs: int,
    seed: int,
    trace_duration: float,
    abilene: bool = False,
    rates: tuple[float, ...] = (0.001, 0.01, 0.1, 0.5),
    top_t: int = 10,
    jobs: int | None = None,
) -> PipelineResult:
    pipeline = (
        Pipeline()
        .with_trace("abilene" if abilene else "sprint", scale=scale, duration=trace_duration)
        .with_sampling_rates(rates)
        .with_key_policy("prefix" if prefix_flows else "five-tuple")
        .with_bin_duration(bin_duration)
        .with_top(top_t)
        .with_runs(num_runs)
        .with_seed(seed)
        .streaming()
    )
    return pipeline.run(jobs=jobs)


def figure_12_trace_ranking_five_tuple(
    bin_duration: float = 60.0,
    scale: float = DEFAULT_TRACE_SCALE,
    num_runs: int = DEFAULT_TRACE_RUNS,
    seed: int = 12,
    trace_duration: float = 1800.0,
    jobs: int | None = None,
) -> PipelineResult:
    """Fig. 12 — trace-driven ranking of the top 10 flows (5-tuple)."""
    return _trace_simulation(False, bin_duration, scale, num_runs, seed, trace_duration, jobs=jobs)


def figure_13_trace_ranking_prefix(
    bin_duration: float = 60.0,
    scale: float = DEFAULT_TRACE_SCALE,
    num_runs: int = DEFAULT_TRACE_RUNS,
    seed: int = 13,
    trace_duration: float = 1800.0,
    jobs: int | None = None,
) -> PipelineResult:
    """Fig. 13 — trace-driven ranking of the top 10 flows (/24 prefix)."""
    return _trace_simulation(True, bin_duration, scale, num_runs, seed, trace_duration, jobs=jobs)


def figure_14_trace_detection_five_tuple(
    bin_duration: float = 60.0,
    scale: float = DEFAULT_TRACE_SCALE,
    num_runs: int = DEFAULT_TRACE_RUNS,
    seed: int = 14,
    trace_duration: float = 1800.0,
    jobs: int | None = None,
) -> PipelineResult:
    """Fig. 14 — trace-driven detection of the top 10 flows (5-tuple)."""
    return _trace_simulation(False, bin_duration, scale, num_runs, seed, trace_duration, jobs=jobs)


def figure_15_trace_detection_prefix(
    bin_duration: float = 60.0,
    scale: float = DEFAULT_TRACE_SCALE,
    num_runs: int = DEFAULT_TRACE_RUNS,
    seed: int = 15,
    trace_duration: float = 1800.0,
    jobs: int | None = None,
) -> PipelineResult:
    """Fig. 15 — trace-driven detection of the top 10 flows (/24 prefix)."""
    return _trace_simulation(True, bin_duration, scale, num_runs, seed, trace_duration, jobs=jobs)


def figure_16_trace_ranking_abilene(
    bin_duration: float = 60.0,
    scale: float = DEFAULT_TRACE_SCALE,
    num_runs: int = DEFAULT_TRACE_RUNS,
    seed: int = 16,
    trace_duration: float = 1800.0,
    jobs: int | None = None,
) -> PipelineResult:
    """Fig. 16 — trace-driven ranking on an Abilene-like short-tailed trace."""
    return _trace_simulation(
        False,
        bin_duration,
        scale,
        num_runs,
        seed,
        trace_duration,
        abilene=True,
        rates=(0.001, 0.01, 0.1, 0.8),
        jobs=jobs,
    )


#: Registry used by the benchmark harness and the report generator.
ANALYTICAL_FIGURES = {
    "fig01": figure_01_optimal_rate_log,
    "fig02": figure_02_optimal_rate_linear,
    "fig03": figure_03_gaussian_error,
    "fig04": figure_04_ranking_top_t_five_tuple,
    "fig05": figure_05_ranking_top_t_prefix,
    "fig06": figure_06_ranking_beta_five_tuple,
    "fig07": figure_07_ranking_beta_prefix,
    "fig08": figure_08_ranking_total_flows_five_tuple,
    "fig09": figure_09_ranking_total_flows_prefix,
    "fig10": figure_10_detection_top_t_five_tuple,
    "fig11": figure_11_detection_top_t_prefix,
}

TRACE_FIGURES = {
    "fig12": figure_12_trace_ranking_five_tuple,
    "fig13": figure_13_trace_ranking_prefix,
    "fig14": figure_14_trace_detection_five_tuple,
    "fig15": figure_15_trace_detection_prefix,
    "fig16": figure_16_trace_ranking_abilene,
}

__all__ = [
    "FigureResult",
    "ANALYTICAL_FIGURES",
    "TRACE_FIGURES",
    "DEFAULT_TRACE_SCALE",
    "DEFAULT_TRACE_RUNS",
    "figure_01_optimal_rate_log",
    "figure_02_optimal_rate_linear",
    "figure_03_gaussian_error",
    "figure_04_ranking_top_t_five_tuple",
    "figure_05_ranking_top_t_prefix",
    "figure_06_ranking_beta_five_tuple",
    "figure_07_ranking_beta_prefix",
    "figure_08_ranking_total_flows_five_tuple",
    "figure_09_ranking_total_flows_prefix",
    "figure_10_detection_top_t_five_tuple",
    "figure_11_detection_top_t_prefix",
    "figure_12_trace_ranking_five_tuple",
    "figure_13_trace_ranking_prefix",
    "figure_14_trace_detection_five_tuple",
    "figure_15_trace_detection_prefix",
    "figure_16_trace_ranking_abilene",
]
