"""The one result model of pipeline runs.

:class:`PipelineResult` holds one :class:`MetricSeries` per (problem,
sampler): series are keyed by *sampler label* (so several samplers with
the same effective rate can be compared in one run) and can be fetched
by label or by effective rate through :meth:`~PipelineResult.series`;
:attr:`~PipelineResult.sampling_rates` and
:meth:`~PipelineResult.summary_rows` answer the per-rate questions of
the paper's figures, and the export helpers
(:meth:`~PipelineResult.to_dict`, :meth:`~PipelineResult.to_csv`) cover
the figure, report and store workflows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class MetricSeries:
    """Per-bin metric values of one sampler's runs for one problem.

    Attributes
    ----------
    problem:
        ``"ranking"`` or ``"detection"``.
    sampling_rate:
        Packet sampling probability.
    bin_start_times:
        Start time of each measurement interval, in seconds.
    values:
        Array of shape ``(num_runs, num_bins)`` with the swapped-pair
        counts of every run.
    """

    problem: str
    sampling_rate: float
    bin_start_times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        times = np.asarray(self.bin_start_times, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must have shape (num_runs, num_bins)")
        if times.ndim != 1 or times.size != values.shape[1]:
            raise ValueError("bin_start_times must have one entry per bin")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bin_start_times", times)

    @property
    def num_runs(self) -> int:
        """Number of independent sampling runs."""
        return int(self.values.shape[0])

    @property
    def num_bins(self) -> int:
        """Number of measurement intervals."""
        return int(self.values.shape[1])

    @property
    def mean(self) -> np.ndarray:
        """Per-bin mean of the swapped-pair count over runs."""
        return self.values.mean(axis=0)

    @property
    def std(self) -> np.ndarray:
        """Per-bin standard deviation over runs."""
        return self.values.std(axis=0, ddof=1) if self.num_runs > 1 else np.zeros(self.num_bins)

    @property
    def overall_mean(self) -> float:
        """Mean of the metric over all bins and runs."""
        return float(self.values.mean())

    def fraction_of_bins_acceptable(self) -> float:
        """Fraction of bins where mean + std stays below 1 (paper's criterion)."""
        return float(np.mean((self.mean + self.std) < 1.0))


@dataclass
class SamplerSummary:
    """What the pipeline knows about one evaluated sampler."""

    label: str
    effective_rate: float


@dataclass
class PipelineResult:
    """Full result of one pipeline execution.

    Attributes
    ----------
    flow_definition:
        Name of the flow-key policy used ("5-tuple", "/24 ...").
    bin_duration:
        Measurement interval length in seconds.
    top_t:
        Number of top flows evaluated.
    num_runs:
        Independent sampling realisations per sampler.
    samplers:
        One :class:`SamplerSummary` per evaluated sampler, in evaluation
        order.
    ranking, detection:
        Mapping sampler label -> :class:`MetricSeries`.
    flows_per_bin:
        Average number of distinct flows per measurement interval before
        sampling.
    total_packets:
        Number of packets processed (after clipping), summed over chunks.
    streamed:
        Whether the run used the chunked streaming executor.
    monitor:
        Whether the run evaluated through the monitor-in-the-loop
        accounting engine (see :meth:`Pipeline.with_monitor
        <repro.pipeline.pipeline.Pipeline.with_monitor>`).
    max_flows:
        The monitor's flow-memory bound (``None`` when unbounded or not
        in monitor mode).
    evictions:
        Monitor mode only: sampler label -> smallest-flow eviction
        count of each independent run, in run order.
    source:
        One-line description of the executed packet source (see
        :meth:`PacketSource.describe
        <repro.traces.source.PacketSource.describe>`).
    scenario:
        Name of the :data:`repro.scenarios.SCENARIOS` workload the run
        streamed, or ``None`` for plain trace/source runs.
    """

    flow_definition: str
    bin_duration: float
    top_t: int
    num_runs: int
    samplers: list[SamplerSummary] = field(default_factory=list)
    ranking: dict[str, MetricSeries] = field(default_factory=dict)
    detection: dict[str, MetricSeries] = field(default_factory=dict)
    flows_per_bin: float = 0.0
    total_packets: int = 0
    streamed: bool = False
    monitor: bool = False
    max_flows: int | None = None
    evictions: dict[str, list[int]] = field(default_factory=dict)
    source: str | None = None
    scenario: str | None = None

    # ------------------------------------------------------------------
    @property
    def labels(self) -> list[str]:
        """Sampler labels in evaluation order."""
        return [summary.label for summary in self.samplers]

    @property
    def sampling_rates(self) -> list[float]:
        """Effective sampling rates of the evaluated samplers, increasing."""
        return sorted({summary.effective_rate for summary in self.samplers})

    def series(self, problem: str, key: str | float) -> MetricSeries:
        """Fetch one series by sampler label or by effective sampling rate.

        Parameters
        ----------
        problem:
            ``"ranking"`` or ``"detection"``.
        key:
            A sampler label (exact string) or an effective sampling
            rate (matched within 1e-12).

        Returns
        -------
        MetricSeries
            The per-bin values of that sampler's runs.
        """
        if problem not in ("ranking", "detection"):
            raise KeyError(f"unknown problem {problem!r}; expected 'ranking' or 'detection'")
        store = self.ranking if problem == "ranking" else self.detection
        if isinstance(key, str):
            if key not in store:
                raise KeyError(
                    f"no {problem} series for sampler {key!r}; available: {sorted(store)}"
                )
            return store[key]
        for summary in self.samplers:
            if abs(summary.effective_rate - float(key)) < 1e-12 and summary.label in store:
                return store[summary.label]
        raise KeyError(f"no {problem} series at sampling rate {key}")

    # ------------------------------------------------------------------
    def summary_rows(self) -> list[dict[str, float | str]]:
        """Flat rows (one per problem and sampler) for reports and CSV export.

        Returns
        -------
        list[dict]
            One row per (problem, sampler) with the run parameters, the
            overall mean swapped pairs and the acceptable-bin fraction.
        """
        rows: list[dict[str, float | str]] = []
        for problem, store in (("ranking", self.ranking), ("detection", self.detection)):
            for summary in self.samplers:
                if summary.label not in store:
                    continue
                series = store[summary.label]
                rows.append(
                    {
                        "problem": problem,
                        "sampler": summary.label,
                        "flow_definition": self.flow_definition,
                        "bin_duration_s": self.bin_duration,
                        "top_t": self.top_t,
                        "sampling_rate": summary.effective_rate,
                        "mean_swapped_pairs": series.overall_mean,
                        "fraction_bins_acceptable": series.fraction_of_bins_acceptable(),
                    }
                )
        return rows

    def to_dict(self) -> dict:
        """Plain-python export (JSON-friendly) of the full result.

        Returns
        -------
        dict
            Every field of the result with series as nested lists; the
            parallel-determinism tests compare this representation
            across execution backends, so it must not depend on how the
            result was computed.
        """
        def _series_dict(series: MetricSeries) -> dict:
            return {
                "sampling_rate": series.sampling_rate,
                "bin_start_times": series.bin_start_times.tolist(),
                "mean": series.mean.tolist(),
                "std": series.std.tolist(),
                "values": series.values.tolist(),
            }

        return {
            "flow_definition": str(self.flow_definition),
            "bin_duration": float(self.bin_duration),
            "top_t": int(self.top_t),
            "num_runs": int(self.num_runs),
            "flows_per_bin": float(self.flows_per_bin),
            "total_packets": int(self.total_packets),
            "streamed": bool(self.streamed),
            "monitor": bool(self.monitor),
            "max_flows": None if self.max_flows is None else int(self.max_flows),
            "source": self.source,
            "scenario": self.scenario,
            "evictions": {
                label: [int(value) for value in runs]
                for label, runs in self.evictions.items()
            },
            "samplers": [
                {"label": s.label, "effective_rate": float(s.effective_rate)}
                for s in self.samplers
            ],
            "ranking": {label: _series_dict(series) for label, series in self.ranking.items()},
            "detection": {label: _series_dict(series) for label, series in self.detection.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineResult":
        """Rebuild a result from its :meth:`to_dict` representation.

        The exact inverse of :meth:`to_dict`:
        ``PipelineResult.from_dict(r.to_dict()).to_dict() == r.to_dict()``
        holds bit for bit (floats survive JSON because ``tolist`` emits
        shortest-round-trip Python floats), and the rendered report of a
        reloaded result is character-identical to the live one — the
        experiment store (:mod:`repro.store`) relies on both.

        Parameters
        ----------
        data:
            A dictionary as produced by :meth:`to_dict` (possibly after
            a JSON round trip).

        Returns
        -------
        PipelineResult
            A result equal to the one that was serialised: same sampler
            order, same series arrays, same monitor fields.
        """

        def _series(problem: str, payload: dict) -> MetricSeries:
            return MetricSeries(
                problem=problem,
                sampling_rate=float(payload["sampling_rate"]),
                bin_start_times=np.asarray(payload["bin_start_times"], dtype=float),
                values=np.asarray(payload["values"], dtype=float),
            )

        max_flows = data.get("max_flows")
        return cls(
            flow_definition=str(data["flow_definition"]),
            bin_duration=float(data["bin_duration"]),
            top_t=int(data["top_t"]),
            num_runs=int(data["num_runs"]),
            flows_per_bin=float(data["flows_per_bin"]),
            total_packets=int(data["total_packets"]),
            streamed=bool(data["streamed"]),
            monitor=bool(data.get("monitor", False)),
            max_flows=None if max_flows is None else int(max_flows),
            source=data.get("source"),
            scenario=data.get("scenario"),
            evictions={
                label: [int(value) for value in runs]
                for label, runs in data.get("evictions", {}).items()
            },
            samplers=[
                SamplerSummary(label=str(s["label"]), effective_rate=float(s["effective_rate"]))
                for s in data["samplers"]
            ],
            ranking={
                label: _series("ranking", payload)
                for label, payload in data.get("ranking", {}).items()
            },
            detection={
                label: _series("detection", payload)
                for label, payload in data.get("detection", {}).items()
            },
        )

    def to_csv(self, path: str | Path | None = None) -> str:
        """Per-bin CSV export (one row per problem, sampler and bin).

        Parameters
        ----------
        path:
            Optional file to write the CSV to.

        Returns
        -------
        str
            The CSV text (also written to ``path`` when given).
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ["problem", "sampler", "sampling_rate", "bin_start_s", "mean_swapped_pairs", "std"]
        )
        for problem, store in (("ranking", self.ranking), ("detection", self.detection)):
            for summary in self.samplers:
                series = store.get(summary.label)
                if series is None:
                    continue
                for start, mean, std in zip(series.bin_start_times, series.mean, series.std):
                    writer.writerow(
                        [
                            problem,
                            summary.label,
                            f"{summary.effective_rate:g}",
                            f"{start:g}",
                            f"{mean:g}",
                            f"{std:g}",
                        ]
                    )
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text


__all__ = ["MetricSeries", "PipelineResult", "SamplerSummary"]
