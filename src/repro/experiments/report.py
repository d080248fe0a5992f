"""Text rendering of experiment results.

The benchmark harness and the examples use these helpers to print the
series behind each figure in a compact, paper-comparable form: one row
per (series, sampling rate) with the metric value and whether it passes
the paper's "fewer than one swapped pair" criterion.

Rendering is **deterministic across serialisation**: a result reloaded
from the experiment store (``PipelineResult.from_dict(r.to_dict())``)
renders character-identical to the live result — row order follows the
result's sampler list (preserved by the round trip) and every float is
formatted through the same helpers on both paths.  The sweep renderers
(:func:`render_sweep_status`, :func:`render_sweep_watch`,
:func:`render_sweep_leaderboard`,
:func:`render_sweep_comparison`) print the aggregate tables behind
``repro sweep status|report``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..pipeline.result import PipelineResult
from .figures import FigureResult


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))


def _fmt(value: float, spec: str = ".3g") -> str:
    """Format one metric value deterministically.

    Coercing through ``float`` first makes the output independent of
    whether the value is a NumPy scalar (live result) or a plain float
    (result reloaded from the store) — the store round-trip tests pin
    this equality.
    """
    return format(float(value), spec)


def render_figure_result(result: FigureResult, max_points: int = 8) -> str:
    """Render an analytical figure's series as an aligned text table."""
    lines = [f"{result.figure}: {result.title}", f"x axis: {result.x_label}"]
    indices = np.linspace(0, result.x_values.size - 1, min(max_points, result.x_values.size))
    indices = np.unique(indices.astype(int))
    header = ["series"] + [f"{result.x_values[i]:.3g}" for i in indices]
    widths = [max(24, len(header[0]))] + [10] * (len(header) - 1)
    lines.append(_format_row(header, widths))
    for label, values in result.series.items():
        row = [label] + [f"{values[i]:.3g}" for i in indices]
        lines.append(_format_row(row, widths))
    return "\n".join(lines)


def render_pipeline_result(result: PipelineResult) -> str:
    """Render a pipeline result as an aligned text table (one row per sampler).

    Deterministic across the store round trip: a result rebuilt with
    :meth:`PipelineResult.from_dict
    <repro.pipeline.result.PipelineResult.from_dict>` renders the exact
    same text as the live result (same row order — the sampler list is
    preserved — and same float formatting via :func:`_fmt`).
    """
    mode = "streamed" if result.streamed else "materialised"
    lines = [
        (
            f"pipeline run ({mode}): {result.flow_definition}, "
            f"bin = {_fmt(result.bin_duration, '.0f')}s, top {result.top_t} flows, "
            f"{result.num_runs} runs, {_fmt(result.flows_per_bin, '.0f')} flows/bin, "
            f"{int(result.total_packets):,} packets"
        )
    ]
    if result.scenario:
        lines.append(f"scenario: {result.scenario} — {result.source}")
    if result.monitor:
        bound = (
            "unbounded" if result.max_flows is None else f"max_flows = {int(result.max_flows):,}"
        )
        evictions = ", ".join(
            f"{label}: {_fmt(np.mean(runs), '.1f')}" for label, runs in result.evictions.items()
        )
        lines.append(
            f"monitor-in-the-loop ({bound}); mean evictions per run: "
            f"{evictions if evictions else 'n/a'}"
        )
    header = ["problem", "sampler", "rate", "mean swapped pairs", "mean+std < 1 (bins %)"]
    widths = [10, 24, 8, 20, 22]
    lines.append(_format_row(header, widths))
    for problem, store in (("ranking", result.ranking), ("detection", result.detection)):
        for summary in result.samplers:
            series = store.get(summary.label)
            if series is None:
                continue
            lines.append(
                _format_row(
                    [
                        problem,
                        summary.label,
                        f"{_fmt(summary.effective_rate * 100)}%",
                        _fmt(series.overall_mean),
                        f"{_fmt(series.fraction_of_bins_acceptable() * 100, '.0f')}%",
                    ],
                    widths,
                )
            )
    return "\n".join(lines)


def render_sweep_status(status: dict) -> str:
    """Render a :func:`repro.sweep.sweep_status` dict as a cell table."""
    lines = [
        (
            f"sweep: {status['cached']}/{status['total']} cells cached, "
            f"{status['missing']} missing"
        ),
        _format_row(["cell", "key", "state", "spec"], [6, 26, 8, 40]),
    ]
    for index, (key, cached, spec) in enumerate(status["cells"]):
        source = spec.scenario if spec.scenario is not None else (spec.trace or "sprint")
        description = f"{source} | {spec.samplers[0]} | seed={spec.seed}"
        lines.append(
            _format_row(
                [str(index), key, "cached" if cached else "missing", description],
                [6, 26, 8, 40],
            )
        )
    return "\n".join(lines)


def render_sweep_watch(status: dict) -> str:
    """Render a :func:`repro.sweep.worker_status` dict as a live cell table.

    One row per grid cell with its lease lifecycle state (``done`` /
    ``leased`` / ``orphaned`` / ``pending``), the owning worker and the
    lease's remaining seconds — the body of ``repro sweep watch``.
    When workers have published heartbeat telemetry files, a per-worker
    block follows with live throughput (cells/s) and cache-hit counts.
    """
    lines = [
        (
            f"sweep: {status['done']}/{status['total']} done | "
            f"{status['leased']} leased, {status['orphaned']} orphaned, "
            f"{status['pending']} pending"
        ),
        _format_row(["cell", "key", "state", "owner", "ttl", "spec"], [6, 26, 9, 24, 8, 40]),
    ]
    workers = status.get("workers") or []
    if workers:
        worker_lines = [
            "workers:",
            _format_row(
                ["owner", "done", "cells/s", "cache hits", "skipped", "elapsed"],
                [28, 6, 9, 11, 8, 10],
            ),
        ]
        for worker in workers:
            rate = worker.get("cells_per_s")
            worker_lines.append(
                _format_row(
                    [
                        str(worker.get("owner", "-")),
                        str(worker.get("cells_done", 0)),
                        "-" if rate is None else f"{rate:.2f}",
                        str(worker.get("cache_hits", 0)),
                        str(worker.get("skipped", 0)),
                        f"{worker.get('elapsed_s', 0.0):.1f}s",
                    ],
                    [28, 6, 9, 11, 8, 10],
                )
            )
        lines[1:1] = worker_lines + [""]
    for index, row in enumerate(status["cells"]):
        spec = row["spec"]
        source = spec.scenario if spec.scenario is not None else (spec.trace or "sprint")
        description = f"{source} | {spec.samplers[0]} | seed={spec.seed}"
        remaining = "-" if row["remaining"] is None else f"{row['remaining']:.1f}s"
        lines.append(
            _format_row(
                [str(index), row["key"], row["state"], row["owner"] or "-", remaining, description],
                [6, 26, 9, 24, 8, 40],
            )
        )
    return "\n".join(lines)


def render_sweep_leaderboard(rows: Sequence[dict]) -> str:
    """Render :func:`repro.sweep.leaderboard_rows` as per-source tables.

    One block per source (scenario or trace), samplers ranked by mean
    swapped pairs ascending — the best sampler of each workload first.
    """
    if not rows:
        return "sweep leaderboard: no stored cells (run `repro sweep run` first)"
    problem = rows[0]["problem"]
    lines = [f"sweep leaderboard ({problem}, mean over seeds; lower is better)"]
    header = ["rank", "sampler", "rate", "mean swapped pairs", "mean+std < 1 (bins %)"]
    widths = [5, 28, 8, 20, 22]
    current_source = None
    for row in rows:
        if row["source"] != current_source:
            current_source = row["source"]
            lines.append(f"\n{current_source} ({row['num_seeds']} seed(s)):")
            lines.append(_format_row(header, widths))
        lines.append(
            _format_row(
                [
                    str(row["rank"]),
                    row["sampler"],
                    f"{_fmt(row['rate'] * 100)}%",
                    _fmt(row["mean_swapped_pairs"]),
                    f"{_fmt(row['fraction_bins_acceptable'] * 100, '.0f')}%",
                ],
                widths,
            )
        )
    return "\n".join(lines)


def render_sweep_comparison(rows: Sequence[dict]) -> str:
    """Render :func:`repro.sweep.comparison_rows`: deltas vs a baseline sweep.

    Negative deltas mean this sweep beats the baseline (fewer swapped
    pairs); cells the baseline store does not contain show ``n/a``.
    """
    if not rows:
        return "sweep comparison: no stored cells (run `repro sweep run` first)"
    problem = rows[0]["problem"]
    lines = [f"sweep comparison vs baseline ({problem}; delta < 0 means better)"]
    header = ["source", "sampler", "seed", "mean", "baseline", "delta"]
    widths = [20, 28, 6, 10, 10, 10]
    lines.append(_format_row(header, widths))
    for row in rows:
        baseline = row["baseline_mean_swapped_pairs"]
        lines.append(
            _format_row(
                [
                    row["source"],
                    row["sampler"],
                    str(row["seed"]),
                    _fmt(row["mean_swapped_pairs"]),
                    "n/a" if baseline is None else _fmt(baseline),
                    "n/a" if row["delta"] is None else _fmt(row["delta"], "+.3g"),
                ],
                widths,
            )
        )
    return "\n".join(lines)


def acceptable_rate_threshold(result: FigureResult, series_label: str) -> float | None:
    """Smallest sampled rate (in %) at which a series drops below one swapped pair.

    Returns ``None`` when the series never reaches the acceptance
    threshold within the sweep — the situation the paper highlights for
    large t or light-tailed distributions.
    """
    if series_label not in result.series:
        raise KeyError(f"unknown series {series_label!r}")
    values = result.series[series_label]
    below = np.flatnonzero(values < 1.0)
    if below.size == 0:
        return None
    return float(result.x_values[below[0]])


__all__ = [
    "render_figure_result",
    "render_pipeline_result",
    "render_sweep_status",
    "render_sweep_watch",
    "render_sweep_leaderboard",
    "render_sweep_comparison",
    "acceptable_rate_threshold",
]
