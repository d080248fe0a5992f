"""Layer-attributed span tracing for the benchmark's traced runs.

A traced run wraps the public functions of each ``src/repro`` layer
from here, outside the program: every wrapped call records a span
(name, start, end, parent span, user call), spans stay in memory, and
:func:`layer_metrics` turns them into per-layer busy and self times,
counts and ratios once the run ends.  :func:`traced` restores every
original attribute on exit, so untraced runs call the program's own
functions.

Busy time of a layer is the time covered by its outermost spans (a
``MergeSource`` chunk that pulls chunks from its parts counts once);
self time is a span's duration minus its child spans.  Work done by
the tracer itself (counting kept packets, stat-ing written files) is
recorded under ``trace.hooks`` and counts as unattributed, never as
any layer's time.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing.process
import os
import statistics
import time
from collections import defaultdict
from collections.abc import Callable, Iterator

import numpy as np

from repro import sweep as sweep_module
from repro.flows.accounting import FlowAccountingEngine
from repro.pipeline import executor as executor_module
from repro.pipeline import parallel as parallel_module
from repro.pipeline import pipeline as pipeline_module
from repro.sampling.base import PacketSampler
from repro.store import RunSpec, RunStore
from repro.traces.source import PacketSource
from repro.traces.synthetic import SyntheticTraceGenerator

#: Span names whose self time is attributed to a layer.  Every other
#: span (``call``, ``pipeline.execute``, ``trace.hooks``) is structure,
#: and its self time is reported as unattributed.
TIMED_LAYERS = (
    "traces.generate",
    "traces.chunk",
    "flows.group_ids",
    "sampling.sample_mask",
    "flows.observe",
    "flows.close",
    "scoring.swapped_pairs",
    "parallel.spawn",
    "parallel.send",
    "parallel.result_wait",
    "pipeline.plan",
    "store.contains",
    "sweep.cell",
    "sweep.collect",
)
#: Metrics defined as a wrapped call minus its children: (metric, span).
SELF_LAYERS = (
    ("executor.self_s", "executor.stream"),
    ("pipeline.package_s", "pipeline.run"),
    ("sweep.self_s", "sweep.run"),
)
LAYER_SPANS = frozenset(TIMED_LAYERS) | {span for _, span in SELF_LAYERS} | {
    "store.put",
    "store.get",
}

#: Bytes one packet occupies in the shared-memory ring (float64
#: timestamp, int64 flow id, int32 size).
SHM_BYTES_PER_PACKET = 8 + 8 + 4


def _metric_units() -> dict[str, str]:
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}_s"] = "s"
        units[f"{layer}_self_s"] = "s"
    for metric, _ in SELF_LAYERS:
        units[metric] = "s"
    units.update(
        {
            "traces.chunks": "count",
            "traces.pkts": "count",
            "sampling.calls": "count",
            "sampling.kept_ratio": "ratio",
            "flows.evictions": "count",
            "flows.evict_ratio": "ratio",
            "scoring.calls": "count",
            "scoring.flows_scored": "count",
            "parallel.bytes_moved": "bytes",
            "store.put_ms_p50": "ms",
            "store.get_ms_p95": "ms",
            "store.bytes_written": "bytes",
            "store.hit_ratio": "ratio",
            "trace.calls": "count",
            "trace.coverage": "ratio",
            "trace.overhead": "ratio",
            "trace.unattributed_s": "s",
        }
    )
    return units


#: Every per-layer metric a traced run emits, with its unit.  Times and
#: counts are per user call; ratios and percentiles pool all calls.
LAYER_METRIC_UNITS = _metric_units()


class Recorder:
    """In-memory span log of one traced run."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.call_of: list[int] = []
        #: Whether a span of the same name was already open (nested).
        self.nested: list[bool] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.calls: list[int] = []
        self._stack: list[int] = []
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._engines: dict[int, FlowAccountingEngine] = {}
        self._send_end: float | None = None
        self._in_call = False

    def active(self) -> bool:
        """True inside a user call, in the process that owns the recorder.

        Forked workers and the benchmark's own work between calls run the
        original functions untouched.
        """
        return self._in_call and os.getpid() == self.pid

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.call_of.append(len(self.calls) - 1)
        self.nested.append(self._depth[name] > 0)
        self.ends.append(0.0)
        self._depth[name] += 1
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()
        self._depth[self.names[index]] -= 1

    def add_closed(self, name: str, start: float, end: float) -> None:
        """Record an interval measured between two wrapped calls."""
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.call_of.append(len(self.calls) - 1)
        self.nested.append(False)
        self.starts.append(start)
        self.ends.append(end)

    @contextlib.contextmanager
    def call(self) -> Iterator[None]:
        """Bracket one user call: the root every layer span hangs under."""
        self.calls.append(len(self.names))
        root = self.open("call")
        self._in_call = True
        try:
            yield
        finally:
            self._in_call = False
            self.close(root)
            bounded = [e for e in self._engines.values() if e.max_flows is not None]
            self.counts["flows.evictions"] += sum(engine.evictions for engine in bounded)
            self._engines.clear()

    def wall(self, call: int) -> float:
        root = self.calls[call]
        return self.ends[root] - self.starts[root]


def _timed(
    recorder: Recorder,
    name: str,
    function: Callable,
    hook: Callable[[Recorder, tuple, object], None] | None = None,
) -> Callable:
    @functools.wraps(function)
    def wrapper(*args: object, **kwargs: object) -> object:
        if not recorder.active():
            return function(*args, **kwargs)
        span = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(span)
        if hook is not None:
            hook_span = recorder.open("trace.hooks")
            hook(recorder, args, result)
            recorder.close(hook_span)
        return result

    return wrapper


class _TimedChunks:
    """Iterator proxy timing each ``next()`` on a source's chunk stream."""

    def __init__(self, recorder: Recorder, chunks: Iterator) -> None:
        self._recorder = recorder
        self._chunks = chunks

    def __iter__(self) -> "_TimedChunks":
        return self

    def __next__(self) -> object:
        recorder = self._recorder
        span = recorder.open("traces.chunk")
        try:
            chunk = next(self._chunks)
        finally:
            recorder.close(span)
        if not recorder.nested[span]:
            recorder.counts["traces.chunks"] += 1
            recorder.counts["traces.pkts"] += len(chunk)
        return chunk

    def close(self) -> None:
        close = getattr(self._chunks, "close", None)
        if close is not None:
            close()


def _timed_chunks(recorder: Recorder, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(*args: object, **kwargs: object) -> object:
        chunks = function(*args, **kwargs)
        return _TimedChunks(recorder, chunks) if recorder.active() else chunks

    return wrapper


def _marks_result_wait(recorder: Recorder, function: Callable) -> Callable:
    """``merge_outcomes`` wrapper: the parent's wait ends when merging starts."""

    @functools.wraps(function)
    def wrapper(*args: object, **kwargs: object) -> object:
        if recorder.active() and recorder._send_end is not None:
            recorder.add_closed("parallel.result_wait", recorder._send_end, time.perf_counter())
            recorder._send_end = None
        return function(*args, **kwargs)

    return wrapper


# -- hooks: counts measured where the work happens ----------------------
def _count_sampled(recorder: Recorder, args: tuple, mask: object) -> None:
    recorder.counts["sampling.calls"] += 1
    recorder.counts["sampling.offered"] += len(args[1])
    recorder.counts["sampling.kept"] += int(np.count_nonzero(mask))


def _count_scored(recorder: Recorder, args: tuple, _result: object) -> None:
    recorder.counts["scoring.calls"] += 1
    recorder.counts["scoring.flows_scored"] += len(args[0])


def _see_engine(recorder: Recorder, args: tuple, _result: object) -> None:
    engine = args[0]
    recorder._engines[id(engine)] = engine


def _count_closed(recorder: Recorder, args: tuple, accounts: object) -> None:
    engine = args[0]
    recorder._engines[id(engine)] = engine
    if engine.max_flows is not None:
        recorder.counts["flows.survivors"] += sum(a.num_flows for a in accounts)


def _count_sent(recorder: Recorder, args: tuple, _result: object) -> None:
    recorder.counts["parallel.bytes_moved"] += len(args[1]) * SHM_BYTES_PER_PACKET


def _mark_send_end(recorder: Recorder, _args: tuple, _result: object) -> None:
    recorder._send_end = time.perf_counter()


def _count_put(recorder: Recorder, args: tuple, key: object) -> None:
    store = args[0]
    for path in (store.run_path(key), store.runs_dir / f"{key}.npz"):
        if path.is_file():
            recorder.counts["store.bytes_written"] += path.stat().st_size


def _count_lookup(recorder: Recorder, _args: tuple, found: object) -> None:
    recorder.counts["store.lookups"] += 1
    recorder.counts["store.hits"] += bool(found)


def _subclasses(base: type) -> list[type]:
    found = [base]
    for sub in base.__subclasses__():
        found.extend(cls for cls in _subclasses(sub) if cls not in found)
    return found


def _targets(recorder: Recorder) -> list[tuple[object, str, Callable]]:
    """Every (owner, attribute, replacement) a traced run installs."""
    targets: list[tuple[object, str, Callable]] = []

    def add(owner: object, attribute: str, name: str, hook: Callable | None = None) -> None:
        original = getattr(owner, attribute)
        targets.append((owner, attribute, _timed(recorder, name, original, hook)))

    add(SyntheticTraceGenerator, "generate", "traces.generate")
    for cls in _subclasses(PacketSource):
        if "iter_chunks" in vars(cls):
            chunks = _timed_chunks(recorder, vars(cls)["iter_chunks"])
            targets.append((cls, "iter_chunks", chunks))
        if "group_ids" in vars(cls):
            add(cls, "group_ids", "flows.group_ids")
    for cls in _subclasses(PacketSampler):
        if "sample_mask" in vars(cls):
            add(cls, "sample_mask", "sampling.sample_mask", _count_sampled)
    add(parallel_module, "run_stream", "executor.stream")
    add(pipeline_module, "run_monitor_stream", "executor.stream")
    add(FlowAccountingEngine, "observe_sorted_chunk", "flows.observe", _see_engine)
    add(FlowAccountingEngine, "observe_chunk", "flows.observe", _see_engine)
    add(FlowAccountingEngine, "close_until", "flows.close", _see_engine)
    add(FlowAccountingEngine, "drain_completed", "flows.close", _count_closed)
    add(FlowAccountingEngine, "flush", "flows.close", _count_closed)
    add(executor_module, "swapped_pair_counts", "scoring.swapped_pairs", _count_scored)
    add(multiprocessing.process.BaseProcess, "start", "parallel.spawn")
    add(parallel_module.SharedMemoryBatchChannel, "__init__", "parallel.spawn")
    add(parallel_module.SharedMemoryBatchChannel, "send", "parallel.send", _count_sent)
    add(parallel_module.SharedMemoryBatchChannel, "close_sending", "parallel.send", _mark_send_end)
    merge = _marks_result_wait(recorder, parallel_module.merge_outcomes)
    targets.append((parallel_module, "merge_outcomes", merge))
    add(pipeline_module.Pipeline, "run", "pipeline.run")
    add(pipeline_module.Pipeline, "plan", "pipeline.plan")
    add(parallel_module.ExecutionPlan, "execute", "pipeline.execute")
    add(RunStore, "put", "store.put", _count_put)
    add(RunStore, "get", "store.get", _count_lookup)
    add(RunStore, "__contains__", "store.contains", _count_lookup)
    add(RunSpec, "execute", "sweep.cell")
    add(sweep_module, "run_sweep", "sweep.run")
    add(sweep_module, "collect", "sweep.collect")
    add(sweep_module, "aggregate_rows", "sweep.collect")
    return targets


@contextlib.contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Install the layer wrappers for the block, then restore the originals."""
    installed: list[tuple[object, str, object]] = []
    try:
        for owner, attribute, replacement in _targets(recorder):
            installed.append((owner, attribute, vars(owner)[attribute]))
            setattr(owner, attribute, replacement)
        yield recorder
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)


def patch_points() -> list[tuple[object, str, object]]:
    """The (owner, attribute, current value) of every attribute tracing replaces."""
    return [(owner, name, vars(owner)[name]) for owner, name, _ in _targets(Recorder())]


# ----------------------------------------------------------------------
def _self_times(recorder: Recorder) -> list[float]:
    own = [end - start for start, end in zip(recorder.starts, recorder.ends)]
    for index, parent in enumerate(recorder.parents):
        if parent >= 0:
            own[parent] -= recorder.ends[index] - recorder.starts[index]
    return own


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(recorder: Recorder, untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of a finished traced run (see :data:`LAYER_METRIC_UNITS`)."""
    calls = max(len(recorder.calls), 1)
    own = _self_times(recorder)
    busy: defaultdict[str, float] = defaultdict(float)
    self_time: defaultdict[str, float] = defaultdict(float)
    durations: defaultdict[str, list[float]] = defaultdict(list)
    for index, name in enumerate(recorder.names):
        duration = recorder.ends[index] - recorder.starts[index]
        self_time[name] += own[index]
        durations[name].append(duration)
        if not recorder.nested[index]:
            busy[name] += duration

    metrics: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_s"] = busy[layer] / calls
        metrics[f"{layer}_self_s"] = self_time[layer] / calls
    for metric, span in SELF_LAYERS:
        metrics[metric] = self_time[span] / calls
    counts = recorder.counts
    for name in (
        "traces.chunks",
        "traces.pkts",
        "sampling.calls",
        "flows.evictions",
        "scoring.calls",
        "scoring.flows_scored",
        "parallel.bytes_moved",
        "store.bytes_written",
    ):
        metrics[name] = counts[name] / calls
    metrics["sampling.kept_ratio"] = _ratio(counts["sampling.kept"], counts["sampling.offered"])
    metrics["flows.evict_ratio"] = _ratio(
        counts["flows.evictions"], counts["flows.survivors"] + counts["flows.evictions"]
    )
    metrics["store.hit_ratio"] = _ratio(counts["store.hits"], counts["store.lookups"])
    metrics["store.put_ms_p50"] = _percentile_ms(durations["store.put"], 50)
    metrics["store.get_ms_p95"] = _percentile_ms(durations["store.get"], 95)

    walls = [recorder.wall(call) for call in range(len(recorder.calls))]
    attributed = sum(self_time[name] for name in LAYER_SPANS)
    metrics["trace.calls"] = float(len(recorder.calls))
    metrics["trace.coverage"] = _ratio(attributed, sum(walls))
    metrics["trace.unattributed_s"] = (sum(walls) - attributed) / calls
    metrics["trace.overhead"] = _ratio(
        statistics.median(walls) if walls else 0.0,
        statistics.median(untraced_walls) if untraced_walls else 0.0,
    )
    return metrics


def span_table(recorder: Recorder) -> list[list]:
    """The recorded spans as ``[name, start_s, end_s, parent, call]`` rows."""
    origin = recorder.starts[0] if recorder.starts else 0.0
    return [
        [name, round(start - origin, 9), round(end - origin, 9), parent, call]
        for name, start, end, parent, call in zip(
            recorder.names, recorder.starts, recorder.ends, recorder.parents, recorder.call_of
        )
    ]
