#!/usr/bin/env python
"""Performance harness for the ``repro.pipeline`` execution engine.

Times the representative workloads of the library — packet expansion,
the paper's (sampler x run) sweep in serial and in parallel, the
cold-vs-warm store-backed sweep (``repro.sweep`` over ``repro.store``),
what a store put costs as the store grows (and a 1,500-cell cold sweep),
the leased multi-worker sweep drain against the serial orchestrator,
the streaming executor at several chunk sizes, the source
throughput of every registered workload scenario, and what a fresh
interpreter pays to start (``import repro``, and a process run under
the ``spawn`` start method) — and writes the
measurements to ``BENCH_pipeline.json`` at the repository root, so that
every future optimisation PR has a recorded trajectory to beat.

Run it from the repository root (no pytest involved)::

    PYTHONPATH=src python benchmarks/harness.py            # full measurement
    PYTHONPATH=src python benchmarks/harness.py --quick    # CI smoke variant
    PYTHONPATH=src python benchmarks/harness.py --jobs 4   # pin the worker count

The sweep section runs the *same* pipeline through the serial and the
process backends and asserts the results are bit-identical before
reporting the speedup, so a regression in determinism fails the harness
rather than polluting the baseline.  The ratio gates time the library
against the reference implementations kept as test oracles in
``tests/oracles`` (chunk assembly, sort-based group-by, the per-packet
object-level monitor, unbounded and under heavy eviction, the
``np.unique`` stream fold, the per-stream scoring loop), after the same
bit-identity check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT / "src", REPO_ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402
from oracles.assembly import reference_chunks  # noqa: E402
from oracles.groupby import sort_engine  # noqa: E402
from oracles.keys import five_tuples_of, keys_by_code, sorted_by_five_tuple  # noqa: E402
from oracles.metrics import reference_swapped_pair_counts  # noqa: E402
from oracles.objectpath import ObjectFlowTable, Packet, flow_bins  # noqa: E402
from oracles.stream import reference_run_stream  # noqa: E402

from repro.core.metrics import swapped_pair_counts  # noqa: E402
from repro.flows.accounting import FlowAccountingEngine  # noqa: E402
from repro.flows.keys import FiveTupleKeyPolicy  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from repro.registry import TRACES  # noqa: E402
from repro.traces.source import DEFAULT_CHUNK_PACKETS, iter_expanded_chunks  # noqa: E402

#: Sampling rates of the paper's trace-driven sweep (Figs. 12-15).
SWEEP_RATES = (0.001, 0.01, 0.1, 0.5)

#: Streaming chunk sizes to compare (packets); ``None`` = materialised.
CHUNK_SIZES = (1 << 14, 1 << 16, 1 << 18, None)


def _pipeline(args: argparse.Namespace, rates=SWEEP_RATES, runs=None) -> Pipeline:
    return (
        Pipeline()
        .with_trace("sprint", scale=args.scale, duration=args.duration)
        .with_sampling_rates(rates)
        .with_bin_duration(60.0)
        .with_top(10)
        .with_runs(args.runs if runs is None else runs)
        .with_seed(args.seed)
        .streaming()
    )


def _timed(func):
    start = time.perf_counter()
    value = func()
    return time.perf_counter() - start, value


def _library_chunks(source, rng, chunk_packets):
    return source.iter_chunks(rng, chunk_packets)


def _assert_streams_identical(source, rng_seed: int, chunk_packets, label: str) -> None:
    """One untimed lockstep pass: library chunks must equal the oracle's."""
    from itertools import zip_longest

    fast = source.iter_chunks(np.random.default_rng(rng_seed), chunk_packets)
    reference = reference_chunks(source, np.random.default_rng(rng_seed), chunk_packets)
    for fast_chunk, ref_chunk in zip_longest(fast, reference):
        if fast_chunk is None or ref_chunk is None:
            raise SystemExit(
                f"FATAL: {label} assembly emits a different chunk count than the "
                "reference — assembly regression"
            )
        for column in ("timestamps", "flow_ids", "sizes_bytes"):
            left = getattr(fast_chunk, column)
            right = getattr(ref_chunk, column)
            if left.dtype != right.dtype or not np.array_equal(left, right):
                raise SystemExit(
                    f"FATAL: {label} assembly diverges from the reference "
                    f"on {column} — assembly regression"
                )


def _timed_source_pass(source, rng_seed: int, chunk_packets, chunks_of) -> tuple[float, int]:
    """Best-of-two pass over ``chunks_of(source, rng, chunk_packets)``."""

    def consume() -> int:
        chunks = chunks_of(source, np.random.default_rng(rng_seed), chunk_packets)
        return sum(len(chunk) for chunk in chunks)

    # Best of two passes: at smoke scales a single pass is scheduling
    # noise, and the CI gate asserts on the recorded ratio.
    first_seconds, packets = _timed(consume)
    second_seconds, _ = _timed(consume)
    return min(first_seconds, second_seconds), packets


def bench_expansion(args: argparse.Namespace) -> dict:
    """Throughput of the chunked packet expansion alone, library vs reference.

    Times one full pass of the library assembly and one of the oracle's
    concatenate-and-argsort assembly and, before recording anything,
    replays both streams in lockstep asserting every chunk is
    bit-identical — a divergence fails the harness rather than
    polluting the baseline.  ``seconds``/``packets_per_second`` record
    the library path so the trajectory stays comparable across PRs.
    """
    plan = _pipeline(args).plan()
    _assert_streams_identical(plan.source, args.seed, plan.chunk_packets, "expansion")
    reference_seconds, packets = _timed_source_pass(
        plan.source, args.seed, plan.chunk_packets, reference_chunks
    )
    seconds, fast_packets = _timed_source_pass(
        plan.source, args.seed, plan.chunk_packets, _library_chunks
    )
    assert fast_packets == packets
    return {
        "seconds": round(seconds, 4),
        "packets": packets,
        "packets_per_second": round(packets / seconds) if seconds else None,
        "reference_seconds": round(reference_seconds, 4),
        "reference_packets_per_second": round(packets / reference_seconds)
        if reference_seconds
        else None,
        "assembly_speedup": round(reference_seconds / seconds, 2) if seconds else None,
        "bit_identical": True,
    }


def bench_scenarios(args: argparse.Namespace) -> dict:
    """Source throughput of every registered workload scenario.

    Builds each scenario at the harness scale and times one full pass
    over its chunked stream — the cost of the source layer alone
    (expansion + merge + transforms), before any sampling — for the
    library and the reference assembly, after asserting the two streams
    are bit-identical chunk for chunk.  ``seconds`` and
    ``packets_per_second`` record the library path.
    """
    from repro.scenarios import SCENARIOS

    results: dict[str, dict] = {}
    for name in SCENARIOS.names():
        source = SCENARIOS.create(
            name, scale=args.scale, duration=args.duration,
            rng=np.random.default_rng(args.seed),
        )
        _assert_streams_identical(source, args.seed, DEFAULT_CHUNK_PACKETS, f"scenario {name}")
        reference_seconds, packets = _timed_source_pass(
            source, args.seed, DEFAULT_CHUNK_PACKETS, reference_chunks
        )
        seconds, _ = _timed_source_pass(source, args.seed, DEFAULT_CHUNK_PACKETS, _library_chunks)
        results[name] = {
            "packets": packets,
            "seconds": round(seconds, 4),
            "packets_per_second": round(packets / seconds) if seconds else None,
            "reference_seconds": round(reference_seconds, 4),
            "reference_packets_per_second": round(packets / reference_seconds)
            if reference_seconds
            else None,
            "assembly_speedup": round(reference_seconds / seconds, 2) if seconds else None,
            "bit_identical": True,
        }
    return results


def bench_sweep(args: argparse.Namespace) -> dict:
    """The paper's rate sweep: serial vs process backend, bit-checked."""
    serial_seconds, serial_result = _timed(lambda: _pipeline(args).run(parallel="serial"))
    parallel_seconds, parallel_result = _timed(
        lambda: _pipeline(args).run(parallel="process", jobs=args.jobs)
    )
    identical = serial_result.to_dict() == parallel_result.to_dict()
    if not identical:
        raise SystemExit("FATAL: serial and process backends disagree — determinism regression")
    plan = _pipeline(args).plan()
    return {
        "cells": plan.num_cells,
        "packet_work": plan.packet_work,
        "jobs": args.jobs,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / parallel_seconds, 3) if parallel_seconds else None,
        "bit_identical": identical,
    }


#: Harness note attached to parallel sections on single-core machines.
SINGLE_CORE_NOTE = "single-core container — parallel speedup not demonstrable"


def host_metadata() -> dict:
    """Host facts stamped into every results section.

    Benchmark numbers are only comparable across PRs when the machine
    they were recorded on travels with them; stamping the metadata into
    each section (not just the report header) keeps it attached when a
    section is quoted or diffed in isolation.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _single_core() -> bool:
    return (os.cpu_count() or 1) < 2


def _accounts_identical(left, right) -> bool:
    """Whether two flushed account lists are bit-for-bit equal."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if (a.index, a.start_time, a.end_time) != (b.index, b.start_time, b.end_time):
            return False
        for field in ("codes", "packets"):
            if not np.array_equal(getattr(a, field), getattr(b, field)):
                return False
    return True


def _sprint_workload(args: argparse.Namespace, quick_scale: float = 0.0):
    """The sprint trace the accounting sections share, in default chunks.

    The scale is at least 0.06 outside ``--quick``, so a full run
    accounts over a million packets, and at least ``quick_scale`` with
    it.  The flow records are sorted by 5-tuple, so their group ids
    under the five-tuple key (what the pipeline accounts by) order like
    the object-level oracle's keys and eviction ties agree.  Returns the
    trace, its chunks and the group id of every flow.
    """
    scale = max(args.scale, quick_scale if args.quick else 0.06)
    generator = TRACES.create("sprint", scale=scale, duration=args.duration)
    trace = sorted_by_five_tuple(generator.generate(rng=np.random.default_rng(args.seed)))
    chunks = list(
        iter_expanded_chunks(
            trace,
            np.random.default_rng(args.seed),
            chunk_packets=DEFAULT_CHUNK_PACKETS,
            clip_to_duration=trace.duration,
        )
    )
    return trace, chunks, FiveTupleKeyPolicy().group_ids(trace)


def _account(engine: FlowAccountingEngine, chunk, groups: np.ndarray) -> None:
    """Account one chunk by group id as ``run_stream`` does: one gather, the
    group-id universe reserved for dense addressing, trusted columns."""
    in_bounds = engine.reserve_codes(int(groups.min()), int(groups.max()))
    engine.observe_sorted_chunk(
        chunk.timestamps, groups.take(chunk.flow_ids), in_bounds=in_bounds
    )


def _timed_object_table(trace, chunks, table: ObjectFlowTable):
    """Feed ``chunks`` to ``table`` one Packet at a time; return (seconds, bins).

    Packet construction happens outside the timer, so the time is the
    table's accounting work alone.
    """
    five_tuples = five_tuples_of(trace)
    seconds = 0.0
    for chunk in chunks:
        packets = [
            Packet(float(ts), five_tuples[int(fid)], int(size))
            for ts, fid, size in zip(chunk.timestamps, chunk.flow_ids, chunk.sizes_bytes)
        ]
        start = time.perf_counter()
        for packet in packets:
            table.observe(packet)
        seconds += time.perf_counter() - start
    start = time.perf_counter()
    bins = table.flush()
    return seconds + time.perf_counter() - start, bins


#: Alternated rounds of the ``flow_accounting`` and ``bounded_monitor``
#: sections: every side is timed this many times, and the sections
#: report the median and quartiles of its passes.
ACCOUNTING_ROUNDS = 5


def bench_flow_accounting(args: argparse.Namespace) -> dict:
    """Monitor flow accounting: object-level oracle vs columnar engine.

    Streams the same expanded packet trace through the per-packet
    object-level table of ``tests/oracles/objectpath.py``, keyed by
    ``FiveTuple``, and through the columnar ``FlowAccountingEngine``,
    keyed by five-tuple group id as ``run_stream`` keys it — once as the
    library runs it (the hash accumulator) and once with the sort-based
    group-by oracle of ``tests/oracles/groupby.py``.  The three sides
    alternate over ``ACCOUNTING_ROUNDS`` rounds; every round asserts
    that all produced bins (codes, packet counts) are bit-identical.
    Records the median and quartiles of each side and takes
    ``speedup`` (object over hash) and ``hash_speedup`` (sort over hash)
    from the medians.  In full mode the workload is at least a million
    packets so the speedup is measured where it matters.
    """
    trace, chunks, groups = _sprint_workload(args)
    total_packets = sum(len(chunk) for chunk in chunks)
    keys = keys_by_code(FiveTupleKeyPolicy(), trace)

    def columnar(make_engine):
        engine = make_engine(60.0)
        for chunk in chunks:
            _account(engine, chunk, groups)
        return engine.flush()

    seconds: dict[str, list[float]] = {"hash": [], "sort": [], "object": []}
    for _ in range(ACCOUNTING_ROUNDS):
        elapsed, accounts = _timed(lambda: columnar(FlowAccountingEngine))
        seconds["hash"].append(elapsed)
        elapsed, sort_accounts = _timed(lambda: columnar(sort_engine))
        seconds["sort"].append(elapsed)
        if not _accounts_identical(accounts, sort_accounts):
            raise SystemExit(
                "FATAL: hash group-by diverges from the sort-based oracle — kernel regression"
            )
        # Object path: the same stream, one Packet at a time.
        elapsed, bins = _timed_object_table(trace, chunks, ObjectFlowTable(60.0))
        seconds["object"].append(elapsed)
        if flow_bins(accounts, keys) != bins:
            raise SystemExit(
                "FATAL: columnar accounting diverges from the object path — equivalence regression"
            )
    # Ratios come from the unrounded medians: a quick run's passes take
    # well under a millisecond.
    hash_seconds, sort_seconds, object_seconds = (
        float(np.median(seconds[side])) for side in ("hash", "sort", "object")
    )
    return {
        "packets": total_packets,
        "bins": len(bins),
        "rounds": ACCOUNTING_ROUNDS,
        "object_seconds": round(object_seconds, 4),
        "columnar_seconds": round(hash_seconds, 4),
        "object_packets_per_second": round(total_packets / object_seconds),
        "columnar_packets_per_second": round(total_packets / hash_seconds),
        "speedup": round(object_seconds / hash_seconds, 2),
        "bit_identical": True,
        "sort_seconds": round(sort_seconds, 4),
        "hash_seconds": round(hash_seconds, 4),
        "hash_packets_per_second": round(total_packets / hash_seconds),
        "hash_speedup": round(sort_seconds / hash_seconds, 2),
        "hash_bit_identical": True,
        "spread": {side: _spread(samples) for side, samples in seconds.items()},
    }


def _outcomes_identical(left, right) -> bool:
    """Whether two stream outcomes are bit-for-bit equal."""
    return (
        np.array_equal(left.bin_start_times, right.bin_start_times)
        and left.flows_per_bin == right.flows_per_bin
        and left.total_packets == right.total_packets
        and np.array_equal(left.ranking_values, right.ranking_values)
        and np.array_equal(left.detection_values, right.detection_values)
        and np.array_equal(left.evictions, right.evictions)
    )


#: Alternated rounds of the ``batch_transport`` section; the medians and
#: quartiles of its rows come from this many calls each.
TRANSPORT_ROUNDS = 10


def bench_batch_transport(args: argparse.Namespace) -> dict:
    """Serial vs the shared-memory process transport, cold and warm, and lanes, bit-checked.

    Runs the same two-sampler plan serially and through the process
    backend over shared memory at one and two workers, in
    :data:`TRANSPORT_ROUNDS` alternated rounds.  At each worker count a
    round times a *cold* call (the idle worker pool closed first, so the
    call starts its workers) and a *warm* call (the same workers
    reused).  Every row records the median, quartiles and minimum of
    its calls, and every outcome must equal the serial one bit for bit.
    After the rounds, one cold and one warm call a worker count run with
    telemetry on and record ``workers_started`` (FATAL unless it reads
    the worker count, then 0).  ``shm_overhead_ns_per_pkt`` is (warm
    shm median at one worker - serial median) / packets: the
    transport's cost per packet, net of the overlap one worker already
    gives (the parent expands the next chunk while the worker folds),
    so on more than one CPU it can read below zero.  ``shm_start_ms``
    is the cold median less the warm one at each worker count.  On
    single-core machines the two-worker timing measures transport
    overhead, not parallelism — the section says so explicitly.

    The ``lanes`` row times the sweep plan (every rate x ``--runs``, 40
    streams at full size) in the same rounds, four ways: one inline
    ``run_stream`` over every cell, ``execute("serial")`` (as stream
    lanes, ``lanes`` of them), and warm shm at one and two workers (the
    plan has the pair plan's slot capacity, so it reuses its workers);
    all four must agree bit for bit.
    """
    from repro import telemetry
    from repro.pipeline import parallel

    pair = {"rates": (0.1, 0.5), "runs": 2}

    def inline(plan):
        return plan._fold(range(plan.num_cells), plan._chunks())[1]

    def on(backend: str, jobs: int | None = None, cold: bool = False):
        def execute(plan):
            if cold:
                parallel._close_idle_pool()
            return plan.execute(backend=backend, jobs=jobs)

        return execute

    def check(outcome, reference, label: str) -> None:
        if not _outcomes_identical(outcome, reference):
            raise SystemExit(f"FATAL: {label} diverges from serial — transport regression")

    references = {
        "pair": on("serial", 1)(_pipeline(args, **pair).plan()),
        "sweep": inline(_pipeline(args).plan()),
    }
    shm_error = parallel.probe_shared_memory()
    calls = [("serial", "pair", on("serial", 1))]
    if shm_error is None:
        for jobs in (1, 2):
            calls += [
                (f"shm_jobs{jobs}_cold", "pair", on("process", jobs, cold=True)),
                (f"shm_jobs{jobs}_warm", "pair", on("process", jobs)),
                (f"lanes.shm_jobs{jobs}", "sweep", on("process", jobs)),
            ]
    calls += [("lanes.inline", "sweep", inline), ("lanes.lanes", "sweep", on("serial"))]
    seconds: dict[str, list[float]] = {name: [] for name, _, _ in calls}
    for _ in range(TRANSPORT_ROUNDS):
        for name, plan_name, execute in calls:
            plan = _pipeline(args, **(pair if plan_name == "pair" else {})).plan()
            elapsed, outcome = _timed(lambda: execute(plan))
            check(outcome, references[plan_name], f"{name} ({plan_name} plan)")
            seconds[name].append(elapsed)

    serial = references["pair"]
    section: dict = {"packets": serial.total_packets, "rounds": TRANSPORT_ROUNDS}
    for name, samples in seconds.items():
        if not name.startswith("lanes."):
            section[name] = _spread(samples)
    section["serial_seconds"] = section["serial"]["median"]
    if shm_error is not None:
        section["shm"] = {"unavailable": shm_error}
    else:
        for jobs in (1, 2):
            plan = _pipeline(args, **pair).plan()
            for kind, cold in (("cold", True), ("warm", False)):
                with telemetry.use_telemetry():
                    check(on("process", jobs, cold)(plan), serial, f"shm {kind} jobs={jobs}")
                    started = telemetry.snapshot()["counters"]["parallel.workers_started"]
                if started != (jobs if cold else 0):
                    raise SystemExit(
                        f"FATAL: a {kind} call at jobs={jobs} started {started} workers"
                    )
                section[f"shm_jobs{jobs}_{kind}"]["workers_started"] = started
            cold, warm = section[f"shm_jobs{jobs}_cold"], section[f"shm_jobs{jobs}_warm"]
            section[f"shm_start_ms_jobs{jobs}"] = round((cold["median"] - warm["median"]) * 1e3, 1)
        section["transport_used"] = plan.transport_used
        section["fallback_reason"] = plan.fallback_reason
        section["shm_overhead_ns_per_pkt"] = round(
            (section["shm_jobs1_warm"]["median"] - section["serial"]["median"])
            / serial.total_packets
            * 1e9,
            1,
        )
    parallel._close_idle_pool()
    section["bit_identical"] = True
    plan = _pipeline(args).plan()
    with telemetry.use_telemetry():
        plan.execute(backend="serial")
        lanes = telemetry.snapshot()["gauges"]["parallel.lanes"]
    section["lanes"] = lanes_row = {"streams": plan.num_cells, "lanes": lanes}
    for name, samples in seconds.items():
        if name.startswith("lanes."):
            lanes_row[name.removeprefix("lanes.") + "_seconds"] = _spread(samples)
    lanes_row["bit_identical"] = True
    if _single_core():
        section["note"] = SINGLE_CORE_NOTE
    return section


def _accumulator_workload(args: argparse.Namespace):
    """Chunks, flow groups and stream samplers of the accumulator workload.

    The shared sprint workload under the five-tuple key, streamed by the
    paper sweep's streams: one Bernoulli sampler per rate and run.
    Returns the chunks, the group of each flow, and a factory of fresh
    samplers.
    """
    from repro.sampling import BernoulliSampler

    _, chunks, groups = _sprint_workload(args)
    rates = [rate for rate in SWEEP_RATES for _ in range(args.runs)]

    def samplers():
        return [
            BernoulliSampler(rate, rng=np.random.default_rng(args.seed + index))
            for index, rate in enumerate(rates)
        ]

    return chunks, groups, samplers


def bench_accumulator(args: argparse.Namespace) -> dict:
    """The stream fold vs its reference oracle, bit-checked.

    Streams the flow-accounting workload with the paper sweep's streams
    (one Bernoulli sampler per rate and run) through the library's
    ``run_stream`` — per-stream count columns in the truth engine, one
    scorer call per bin — and through ``reference_run_stream`` from
    ``tests/oracles/stream.py`` — the per-chunk ``np.unique`` fold with
    sorted-union bin merges it replaced, which scores each stream with
    the per-stream loop oracle.  Exits FATAL unless the two outcomes are
    bit-identical, then records both times and ``speedup`` (reference
    over library).  The ratio covers scoring as well as accounting, so
    it reads well above the ~1.0 it read while both sides shared the
    library scorer; the ``scoring`` section isolates the scorer.
    """
    from repro.pipeline.executor import run_stream

    chunks, groups, samplers = _accumulator_workload(args)

    def run(accumulate):
        return accumulate(iter(chunks), groups, samplers(), 60.0, 10)

    # Best of two passes each, alternating: the gap is a per-chunk
    # constant, easily drowned by one cold-cache pass on a single run.
    stream_seconds, stream = _timed(lambda: run(run_stream))
    reference_seconds, reference = _timed(lambda: run(reference_run_stream))
    stream_seconds = min(stream_seconds, _timed(lambda: run(run_stream))[0])
    reference_seconds = min(reference_seconds, _timed(lambda: run(reference_run_stream))[0])
    identical = _outcomes_identical(stream, reference)
    if not identical:
        raise SystemExit(
            "FATAL: run_stream diverges from the reference stream fold — accounting regression"
        )
    return {
        "packets": sum(len(chunk) for chunk in chunks),
        "streams": stream.ranking_values.shape[0],
        "stream_seconds": round(stream_seconds, 4),
        "reference_seconds": round(reference_seconds, 4),
        "speedup": round(reference_seconds / stream_seconds, 3) if stream_seconds else None,
        "bit_identical": identical,
    }


def bench_scoring(args: argparse.Namespace) -> dict:
    """Bin scoring: one batched call per bin vs the per-stream loop oracle.

    Collects the closed bins of the accumulator workload (the truth
    engine with the keep masks of its Bernoulli streams) and scores each
    with ``swapped_pair_counts`` on the bin's ``(streams, flows)``
    matrix, and with ``reference_swapped_pair_counts`` from
    ``tests/oracles/metrics.py`` one stream at a time.  Exits FATAL
    unless every count is identical, then records both times and
    ``speedup`` (reference over library).
    """
    chunks, groups, samplers = _accumulator_workload(args)
    streams = samplers()
    engine = FlowAccountingEngine(60.0)
    accounts = []
    for chunk in chunks:
        keep = np.stack([sampler.sample_mask(chunk) for sampler in streams])
        engine.observe_sorted_chunk(
            chunk.timestamps, groups.take(chunk.flow_ids), keep_masks=keep
        )
        accounts.extend(engine.drain_completed())
    accounts.extend(engine.flush())
    bins = [(account.packets, account.sampled) for account in accounts]

    def batched():
        return [swapped_pair_counts(packets, sampled, 10) for packets, sampled in bins]

    def per_stream():
        return [
            [reference_swapped_pair_counts(packets, row, 10) for row in sampled]
            for packets, sampled in bins
        ]

    batched_seconds, fast = _timed(batched)
    reference_seconds, reference = _timed(per_stream)
    batched_seconds = min(batched_seconds, _timed(batched)[0])
    identical = all(
        counts.ranking.tolist() == [row.ranking for row in rows]
        and counts.detection.tolist() == [row.detection for row in rows]
        for counts, rows in zip(fast, reference)
    )
    if not identical:
        raise SystemExit(
            "FATAL: the batched scorer diverges from the per-stream loop oracle — "
            "scoring regression"
        )
    return {
        "bins": len(bins),
        "streams": len(streams),
        "flows_per_bin": round(float(np.mean([packets.size for packets, _ in bins])), 1),
        "batched_seconds": round(batched_seconds, 4),
        "reference_seconds": round(reference_seconds, 4),
        "speedup": round(reference_seconds / batched_seconds, 2) if batched_seconds else None,
        "bit_identical": identical,
    }


#: Sampling rate and flow-table bound of the ``bounded_monitor`` section.
BOUNDED_RATE = 0.1
BOUNDED_MAX_FLOWS = 200


def bench_bounded_monitor(args: argparse.Namespace) -> dict:
    """The bounded monitor under heavy eviction: engine vs the object-level oracle.

    Samples the shared sprint workload at p = 0.1 and feeds the kept
    packets, keyed by five-tuple group id, to a ``max_flows=200``
    ``FlowAccountingEngine`` and, keyed by ``FiveTuple``, to the
    per-packet ``ObjectFlowTable`` of ``tests/oracles/objectpath.py``.
    Most admitted flows are evicted again, so nearly every segment takes
    the engine's per-packet replay.  The two sides alternate over
    ``ACCOUNTING_ROUNDS`` rounds, and every round exits FATAL unless the
    bins (codes, packet counts) and eviction counts are identical.
    Records the median and quartiles of each side and ``speedup``
    (oracle over engine) from the medians.
    """
    from repro.flows.packets import PacketBatch
    from repro.sampling import BernoulliSampler

    # Quick runs too must overflow the table: 0.02 of the backbone flow
    # rate fills it many times over in every bin.
    trace, chunks, groups = _sprint_workload(args, quick_scale=0.02)
    sampler = BernoulliSampler(BOUNDED_RATE, rng=np.random.default_rng(args.seed))
    sampled = []
    for chunk in chunks:
        kept = np.flatnonzero(sampler.sample_mask(chunk))
        sampled.append(
            PacketBatch(
                chunk.timestamps[kept], chunk.flow_ids[kept], chunk.sizes_bytes[kept]
            )
        )
    packets = sum(len(batch) for batch in sampled)
    keys = keys_by_code(FiveTupleKeyPolicy(), trace)

    def engine_pass():
        engine = FlowAccountingEngine(60.0, max_flows=BOUNDED_MAX_FLOWS)
        for batch in sampled:
            _account(engine, batch, groups)
        return engine.flush(), engine.evictions

    seconds: dict[str, list[float]] = {"engine": [], "object": []}
    for _ in range(ACCOUNTING_ROUNDS):
        elapsed, (accounts, evictions) = _timed(engine_pass)
        seconds["engine"].append(elapsed)
        table = ObjectFlowTable(60.0, max_flows=BOUNDED_MAX_FLOWS)
        elapsed, bins = _timed_object_table(trace, sampled, table)
        seconds["object"].append(elapsed)
        if flow_bins(accounts, keys) != bins or evictions != table.evictions:
            raise SystemExit(
                "FATAL: the bounded engine diverges from the object-level monitor — "
                "eviction regression"
            )
    engine_seconds = float(np.median(seconds["engine"]))
    object_seconds = float(np.median(seconds["object"]))
    admitted = evictions + sum(len(flow_bin.flows) for flow_bin in bins)
    return {
        "packets": packets,
        "sampling_rate": BOUNDED_RATE,
        "max_flows": BOUNDED_MAX_FLOWS,
        "bins": len(bins),
        "evictions": evictions,
        "evict_ratio": round(evictions / admitted, 4) if admitted else None,
        "rounds": ACCOUNTING_ROUNDS,
        "engine_seconds": round(engine_seconds, 4),
        "object_seconds": round(object_seconds, 4),
        "speedup": round(object_seconds / engine_seconds, 2),
        "bit_identical": True,
        "spread": {side: _spread(samples) for side, samples in seconds.items()},
    }


def bench_end_to_end(args: argparse.Namespace) -> dict:
    """End-to-end pipeline throughput: source -> samplers -> accounting.

    Streams a live expanded sprint trace (generation inside the timed
    loop — no pre-materialised chunk list) through two Bernoulli
    samplers and the stream fold, and records one honest pkt/s number
    for the whole data path.  Its gate is the CI assembly perf smoke,
    which requires a positive ``packets_per_second``.  The number
    includes packet generation, so it is bounded by the slower of the
    source layer and the accounting engine.
    """
    from repro.pipeline.executor import run_stream
    from repro.sampling import BernoulliSampler
    from repro.traces.source import FlowTraceSource

    generator = TRACES.create("sprint", scale=args.scale, duration=args.duration)
    trace = generator.generate(rng=np.random.default_rng(args.seed))
    source = FlowTraceSource(trace)
    groups = source.group_ids(FiveTupleKeyPolicy())
    total_packets = 0

    def run():
        nonlocal total_packets
        total_packets = 0

        def stream():
            nonlocal total_packets
            for chunk in source.iter_chunks(
                np.random.default_rng(args.seed), DEFAULT_CHUNK_PACKETS
            ):
                total_packets += len(chunk)
                yield chunk

        samplers = [
            BernoulliSampler(rate, rng=np.random.default_rng(args.seed + index))
            for index, rate in enumerate((0.01, 0.1))
        ]
        return run_stream(stream(), groups, samplers, 60.0, 10)

    seconds, _ = _timed(run)
    return {
        "packets": total_packets,
        "streams": 2,
        "seconds": round(seconds, 4),
        "packets_per_second": round(total_packets / seconds) if seconds else None,
        "note": "single-threaded full data path (generation + sampling + accounting); "
        "see docs/traces.md for what this number does and does not claim",
    }


def bench_sweep_store(args: argparse.Namespace) -> dict:
    """Cold vs warm store-backed sweep (repro.sweep over repro.store).

    Runs the paper's rate grid twice through a fresh experiment store:
    the cold pass executes every cell through the pipeline, the warm
    pass must find every cell cached and execute nothing.  The recorded
    ``warm_speedup`` is the incremental-sweep payoff; the harness fails
    if the warm pass re-executes any cell or is less than 10x faster —
    the resumability acceptance bar — so a cache regression breaks the
    baseline instead of polluting it.
    """
    import shutil
    import tempfile

    from repro.store import RunStore
    from repro.sweep import SweepGrid, run_sweep

    grid = SweepGrid(
        traces=(f"sprint:scale={args.scale},duration={args.duration}",),
        samplers=("bernoulli",),
        rates=SWEEP_RATES,
        seeds=(args.seed,),
        num_runs=args.runs,
    )
    root = tempfile.mkdtemp(prefix="bench_sweep_store_")
    try:
        store = RunStore(root)
        cold_seconds, cold = _timed(lambda: run_sweep(grid, store))
        warm_seconds, warm = _timed(lambda: run_sweep(grid, store))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if not cold.complete or len(cold.executed) != len(grid.cells()):
        raise SystemExit("FATAL: cold sweep did not execute every cell")
    if warm.executed or len(warm.cached) != len(grid.cells()):
        raise SystemExit("FATAL: warm sweep re-executed cells — store resume regression")
    speedup = round(cold_seconds / warm_seconds, 1) if warm_seconds else None
    if speedup is not None and speedup < 10.0:
        raise SystemExit(
            f"FATAL: warm sweep only {speedup}x faster than cold (acceptance bar is 10x)"
        )
    return {
        "cells": len(grid.cells()),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": speedup,
        "warm_executed": len(warm.executed),
        "warm_cached": len(warm.cached),
    }


#: Stored runs at which ``store_index`` times puts (``--quick``: the
#: first two), and how many puts it times at each.
STORE_INDEX_SIZES = (100, 1_000, 4_000)
STORE_INDEX_PUTS = 50

#: The cold sweep ``store_index`` times: 10 Bernoulli rates x 150 seeds
#: of a 60 s steady trace, 2 runs each — 1,500 cells in 150 source
#: passes (``--quick``: 15 seeds).
STORE_SWEEP_SCENARIO = "steady:duration=60,scale=0.002"
STORE_SWEEP_RATES = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
STORE_SWEEP_SEEDS = 150


def bench_store_index(args: argparse.Namespace) -> dict:
    """What a put costs as the store grows, and one large cold sweep.

    Fills one fresh store per size in ``STORE_INDEX_SIZES`` to that many
    runs, one ``RunStore.put`` at a time (one small executed result,
    stored under a new seed each time).  Then times ``list()`` on each
    (the fastest of five, each on a fresh handle) and
    ``STORE_INDEX_PUTS`` more puts into each, recorded as their median
    and 80th percentile in ms (the highest with ten puts beyond it).
    Both go round the stores in turn, so a stall of the host's disk or
    CPU hits every size alike.  An index that every put rewrites makes
    the put p50 grow with the store; the CI perf-smoke step asserts that
    the p50 at 1,000 runs is at most 2x the p50 at 100.  Then times one
    cold ``run_sweep`` of the 1,500-cell grid above into another fresh
    store, and records the sha256 of its aggregate rows, which a change
    to the store must leave as it is.
    """
    import hashlib
    import shutil
    import tempfile
    from dataclasses import replace

    from repro.store import RunSpec, RunStore
    from repro.sweep import SweepGrid, aggregate_rows, collect, run_sweep

    sizes = STORE_INDEX_SIZES[:2] if args.quick else STORE_INDEX_SIZES
    spec = RunSpec(
        samplers=("bernoulli:rate=0.1",), scenario=STORE_SWEEP_SCENARIO, num_runs=2, seed=0
    )
    result = spec.execute(parallel="serial")
    root = Path(tempfile.mkdtemp(prefix="bench_store_index_"))
    try:
        stores = {size: RunStore(root / str(size)) for size in sizes}
        for size, store in stores.items():
            for seed in range(size):
                store.put(replace(spec, seed=seed), result)
        list_seconds: dict[int, list[float]] = {size: [] for size in sizes}
        for _ in range(5):
            for size in sizes:
                # A fresh handle, as `repro store ls` lists with.
                seconds, listed = _timed(lambda: RunStore(root / str(size)).list())
                if len(listed) != size:
                    raise SystemExit(f"FATAL: store lists {len(listed)} of {size} stored runs")
                list_seconds[size].append(seconds)
        put_seconds: dict[int, list[float]] = {size: [] for size in sizes}
        for seed in range(STORE_INDEX_PUTS):
            for size, store in stores.items():
                spec_at = replace(spec, seed=size + seed)
                put_seconds[size].append(_timed(lambda: store.put(spec_at, result))[0])
        index_bytes = stores[sizes[-1]].index_path.stat().st_size
    finally:
        shutil.rmtree(root, ignore_errors=True)

    grid = SweepGrid(
        scenarios=(STORE_SWEEP_SCENARIO,),
        samplers=("bernoulli",),
        rates=STORE_SWEEP_RATES,
        seeds=tuple(range(STORE_SWEEP_SEEDS // 10 if args.quick else STORE_SWEEP_SEEDS)),
        num_runs=2,
    )
    root = tempfile.mkdtemp(prefix="bench_store_sweep_")
    try:
        store = RunStore(root)
        sweep_seconds, report = _timed(lambda: run_sweep(grid, store))
        if not report.complete or len(report.executed) != len(grid.cells()):
            raise SystemExit("FATAL: cold sweep did not execute every cell")
        rows = aggregate_rows(collect(grid, store))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "puts_per_size": STORE_INDEX_PUTS,
        "put_ms_p50": {
            str(size): round(1e3 * float(np.median(times)), 3)
            for size, times in put_seconds.items()
        },
        "put_ms_p80": {
            str(size): round(1e3 * float(np.percentile(times, 80)), 3)
            for size, times in put_seconds.items()
        },
        "list_ms": {str(size): round(1e3 * min(times), 3) for size, times in list_seconds.items()},
        "index_bytes": index_bytes,
        "cold_sweep": {
            "grid": f"{STORE_SWEEP_SCENARIO} x bernoulli x {len(grid.rates)} rates "
            f"x {len(grid.seeds)} seeds, 2 runs",
            "cells": len(grid.cells()),
            "passes": report.passes,
            "seconds": round(sweep_seconds, 3),
            "rows_sha256": hashlib.sha256(
                json.dumps(rows, sort_keys=True).encode("utf-8")
            ).hexdigest(),
        },
    }


#: Timed calls a side in ``sweep_workers``; the sides alternate.
SWEEP_WORKERS_CALLS = 5


def _spread(samples: list[float]) -> dict:
    """Median and quartiles of timed calls, in seconds."""
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {
        "median": round(float(median), 4),
        "q1": round(float(q1), 4),
        "q3": round(float(q3), 4),
        "min": round(min(samples), 4),
    }


def bench_sweep_workers(args: argparse.Namespace) -> dict:
    """Leased multi-worker drain vs the serial sweep orchestrator.

    Runs the same grid into fresh stores, alternately through
    ``run_sweep`` (one orchestrating process; its ``"auto"`` passes run
    on the process backend at full size) and through
    ``run_sweep_workers`` with two crash-safe worker processes
    coordinating through store leases (each folds its passes inline,
    on one thread), :data:`SWEEP_WORKERS_CALLS` times a side; one call
    a side would make the speedup a single serial sample.  Every pass must complete the grid, and the
    aggregate rows must be bit-identical — the distributed-execution
    contract — before the medians, quartiles and the speedup of the
    medians are recorded.  A degraded pass (worker spawn unavailable in
    this environment) is recorded as such rather than failing.
    """
    import shutil
    import tempfile

    from repro.store import RunStore
    from repro.sweep import SweepGrid, aggregate_rows, collect, run_sweep, run_sweep_workers

    grid = SweepGrid(
        traces=(f"sprint:scale={args.scale},duration={args.duration}",),
        samplers=("bernoulli",),
        rates=SWEEP_RATES,
        seeds=(args.seed, args.seed + 1),
        num_runs=args.runs,
    )
    sides = {
        "serial": lambda store: run_sweep(grid, store),
        "workers": lambda store: run_sweep_workers(grid, store, workers=2),
    }
    seconds: dict[str, list[float]] = {side: [] for side in sides}
    rows: set[str] = set()
    distributed = None
    for _ in range(SWEEP_WORKERS_CALLS):
        for side, drain in sides.items():
            root = tempfile.mkdtemp(prefix=f"bench_sweep_workers_{side}_")
            try:
                store = RunStore(root)
                elapsed, report = _timed(lambda: drain(store))
                if not report.complete:
                    raise SystemExit("FATAL: a sweep pass left cells missing")
                rows.add(json.dumps(aggregate_rows(collect(grid, store)), sort_keys=True))
            finally:
                shutil.rmtree(root, ignore_errors=True)
            seconds[side].append(elapsed)
            if side == "workers":
                distributed = report
    if len(rows) != 1:
        raise SystemExit(
            "FATAL: multi-worker aggregates diverge from serial — distribution regression"
        )
    serial, workers = _spread(seconds["serial"]), _spread(seconds["workers"])
    return {
        "cells": len(grid.cells()),
        "workers": distributed.workers,
        "degraded": distributed.degraded,
        "calls_per_side": SWEEP_WORKERS_CALLS,
        "serial_seconds": serial["median"],
        "workers_seconds": workers["median"],
        "serial_spread": serial,
        "workers_spread": workers,
        "speedup": round(serial["median"] / workers["median"], 3),
        "bit_identical": True,
    }


def bench_telemetry(args: argparse.Namespace) -> dict:
    """Telemetry disabled-mode overhead and the on-vs-off bit-identity.

    The off-switch contract (docs/observability.md): with telemetry
    disabled every instrumentation point is one attribute check plus a
    shared no-op span, so an instrumented per-chunk loop must stay
    within a few percent of the identical loop with no instrumentation
    at all.  The microbenchmark times a representative per-chunk
    workload (NumPy reductions, sized like a fraction of a real chunk)
    with and without the guard pattern the executor uses, best of
    several passes; the CI perf-smoke step asserts the recorded
    ``disabled_overhead_ratio`` stays at or below 1.03.  The pipeline
    pass then runs the same pipeline with telemetry on and off and
    asserts the results are bit-identical before recording both times —
    a perturbation fails the harness rather than polluting the baseline.
    """
    from repro import telemetry

    telemetry.disable()
    rng = np.random.default_rng(args.seed)
    iterations = 300 if args.quick else 1500
    data = rng.random(1 << 16)

    def chunk_work() -> float:
        return float(data.sum()) + float(data.min())

    def bare_loop() -> float:
        total = 0.0
        for _ in range(iterations):
            total += chunk_work()
        return total

    def guarded_loop() -> float:
        total = 0.0
        for _ in range(iterations):
            total += chunk_work()
            if telemetry.enabled:
                telemetry.count("bench.chunks")
                telemetry.count("bench.packets", 1 << 16)
            with telemetry.span("bench.chunk"):
                pass
        return total

    bare_seconds = min(_timed(bare_loop)[0] for _ in range(5))
    guarded_seconds = min(_timed(guarded_loop)[0] for _ in range(5))
    ratio = guarded_seconds / bare_seconds if bare_seconds else None

    def run():
        return _pipeline(args, rates=(0.1,), runs=2).run(parallel="serial")

    disabled_seconds, baseline = _timed(run)
    with telemetry.use_telemetry():
        enabled_seconds, instrumented = _timed(run)
        snapshot = telemetry.snapshot()
    identical = baseline.to_dict() == instrumented.to_dict()
    if not identical:
        raise SystemExit(
            "FATAL: telemetry perturbs pipeline results — observability regression"
        )
    return {
        "loop_iterations": iterations,
        "bare_loop_seconds": round(bare_seconds, 6),
        "guarded_loop_seconds": round(guarded_seconds, 6),
        "disabled_overhead_ratio": round(ratio, 4) if ratio is not None else None,
        "disabled_seconds": round(disabled_seconds, 4),
        "enabled_seconds": round(enabled_seconds, 4),
        "enabled_overhead_ratio": round(enabled_seconds / disabled_seconds, 3)
        if disabled_seconds
        else None,
        "counters_recorded": len(snapshot["counters"]),
        "spans_recorded": len(snapshot["spans"]),
        "snapshot_schema": snapshot["schema"],
        "bit_identical": identical,
    }


#: Fresh interpreters timed by the import-cost section (the minimum is kept).
IMPORT_REPEATS = 5

#: Worker count of the import-cost section's ``spawn`` process run.
SPAWN_JOBS = 2

#: Child prelude: the pipeline of ``_pipeline(args)``, rebuilt from the
#: JSON config in ``sys.argv[1]``, and the digest of a result.
_CHILD_PIPELINE = """
import hashlib, json, sys
config = json.loads(sys.argv[1])

def make_pipeline():
    from repro import Pipeline

    return (
        Pipeline()
        .with_trace("sprint", scale=config["scale"], duration=config["duration"])
        .with_sampling_rates(config["rates"])
        .with_bin_duration(60.0)
        .with_top(10)
        .with_runs(config["runs"])
        .with_seed(config["seed"])
        .streaming()
    )

def digest(result):
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
"""

#: The peak RSS is VmHWM, this process's own high-water mark: ``ru_maxrss``
#: would also count the harness's, which survives the fork and exec.
_IMPORT_PROBE = """
import json, sys, time
start = time.perf_counter()
import repro
seconds = time.perf_counter() - start
try:
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    peak_rss_mb = peak_kb / 1024.0
except OSError:
    peak_rss_mb = None
print(json.dumps({
    "seconds": seconds,
    "peak_rss_mb": peak_rss_mb,
    "scipy_loaded": "scipy" in sys.modules,
}))
"""

_SERIAL_PROBE = _CHILD_PIPELINE + """
result = make_pipeline().run(parallel="serial")
print(json.dumps({"digest": digest(result), "scipy_loaded": "scipy" in sys.modules}))
"""

_SPAWN_PROBE = _CHILD_PIPELINE + """
import multiprocessing, time
multiprocessing.set_start_method("spawn")
from repro import telemetry
pipeline = make_pipeline()
with telemetry.use_telemetry():
    start = time.perf_counter()
    result = pipeline.run(parallel="process", jobs=config["jobs"])
    seconds = time.perf_counter() - start
    gauges = telemetry.snapshot()["gauges"]
print(json.dumps({"seconds": seconds, "digest": digest(result), "gauges": gauges}))
"""


def _fresh_interpreter(code: str, config: dict | None = None) -> dict:
    """Run ``code`` in a new interpreter on this checkout; its last line, parsed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    command = [sys.executable, "-c", code, json.dumps(config or {})]
    done = subprocess.run(
        command, capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=900
    )
    if done.returncode != 0:
        raise SystemExit(f"FATAL: a fresh interpreter failed: {done.stderr.strip()[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def bench_import_cost(args: argparse.Namespace) -> dict:
    """What a fresh interpreter pays before the pipeline does any work.

    Every process that runs the library imports it first: the CLI, a
    script, and each worker of a process run under the ``spawn`` or
    ``forkserver`` start method.  Records the fastest ``import repro``
    of ``IMPORT_REPEATS`` fresh interpreters and the peak RSS after it
    (Linux only; ``None`` elsewhere), and whether SciPy is loaded after the import and after a serial
    run of the sweep (the pipeline path needs only NumPy; the CI import
    smoke step asserts both flags are false).  Then times one
    ``Pipeline.run(parallel="process", jobs=2)`` of the same plan under
    ``spawn`` in its own interpreter, and exits FATAL unless its digest
    equals the serial run's.
    """
    imports = [_fresh_interpreter(_IMPORT_PROBE) for _ in range(IMPORT_REPEATS)]
    config = {
        "scale": args.scale,
        "duration": args.duration,
        "rates": list(SWEEP_RATES),
        "runs": args.runs,
        "seed": args.seed,
        "jobs": SPAWN_JOBS,
    }
    serial = _fresh_interpreter(_SERIAL_PROBE, config)
    spawned = _fresh_interpreter(_SPAWN_PROBE, config)
    if spawned["digest"] != serial["digest"]:
        raise SystemExit(
            "FATAL: a process run under spawn diverges from serial — determinism regression"
        )
    gauges = spawned["gauges"]
    peaks = [probe["peak_rss_mb"] for probe in imports if probe["peak_rss_mb"] is not None]
    return {
        "repeats": IMPORT_REPEATS,
        "import_seconds_min": round(min(probe["seconds"] for probe in imports), 4),
        "import_peak_rss_mb": round(min(peaks), 1) if peaks else None,
        "scipy_loaded_after_import": any(probe["scipy_loaded"] for probe in imports),
        "scipy_loaded_after_run": serial["scipy_loaded"],
        "spawn_process_run": {
            "jobs": SPAWN_JOBS,
            "seconds": round(spawned["seconds"], 4),
            "backend": gauges.get("parallel.backend"),
            "transport": gauges.get("parallel.transport"),
            "fallback": gauges.get("parallel.fallback"),
            "bit_identical": True,
        },
    }


def bench_streaming(args: argparse.Namespace) -> dict:
    """Single-sampler run at several streaming chunk sizes."""
    timings: dict[str, float] = {}
    for chunk in CHUNK_SIZES:
        pipeline = _pipeline(args, rates=(0.1,), runs=2)
        if chunk is None:
            pipeline.materialised()
        else:
            pipeline.streaming(chunk)
        seconds, _ = _timed(lambda: pipeline.run(parallel="serial"))
        key = "materialised" if chunk is None else f"chunk_{chunk}"
        timings[key] = round(seconds, 4)
    return timings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=None,
        help="fraction of backbone flow rate (default 0.05; 0.002 with --quick)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="trace duration in seconds (default 900; 120 with --quick)",
    )
    parser.add_argument(
        "--runs", type=int, default=None,
        help="sampling runs per rate (default 10; 2 with --quick)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="workers for the parallel sweep (default: one per CPU)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_pipeline.json",
        help="where to write the JSON baseline",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny workload for CI smoke runs (numbers are not a baseline)",
    )
    parser.add_argument(
        "--only", type=str, default=None,
        help="comma-separated section names to run (e.g. flow_accounting,accumulator); "
        "the others are skipped — used by the CI perf-smoke step",
    )
    args = parser.parse_args(argv)
    args.only = None if args.only is None else {name.strip() for name in args.only.split(",")}
    # Explicit flags win over the --quick presets, so CI can shrink or
    # grow individual sections (e.g. a larger source workload for the
    # assembly-speedup gate) while staying in quick mode.
    quick_defaults = (0.002, 120.0, 2) if args.quick else (0.05, 900.0, 10)
    if args.scale is None:
        args.scale = quick_defaults[0]
    if args.duration is None:
        args.duration = quick_defaults[1]
    if args.runs is None:
        args.runs = quick_defaults[2]
    if args.jobs is None:
        args.jobs = os.cpu_count() or 1

    host = host_metadata()
    report = {
        "benchmark": "repro.pipeline execution engine",
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": args.quick,
        "environment": host,
        "config": {
            "trace": "sprint",
            "scale": args.scale,
            "duration_s": args.duration,
            "rates": list(SWEEP_RATES),
            "runs": args.runs,
            "seed": args.seed,
            "bin_duration_s": 60.0,
            "top_t": 10,
        },
        "results": {},
    }

    def wanted(name: str) -> bool:
        return args.only is None or name in args.only

    if wanted("expansion"):
        print(f"expansion   ... ", end="", flush=True)
        report["results"]["expansion"] = expansion = bench_expansion(args)
        print(
            f"{expansion['packets']:,} packets in {expansion['seconds']}s "
            f"(reference {expansion['reference_seconds']}s -> "
            f"{expansion['assembly_speedup']}x, bit-identical)"
        )

    if wanted("flow_accounting"):
        print(f"accounting  ... ", end="", flush=True)
        report["results"]["flow_accounting"] = accounting = bench_flow_accounting(args)
        print(
            f"{accounting['packets']:,} packets: object "
            f"{accounting['object_seconds']}s vs columnar {accounting['columnar_seconds']}s "
            f"-> {accounting['speedup']}x, sort {accounting['sort_seconds']}s vs hash "
            f"{accounting['hash_seconds']}s -> {accounting['hash_speedup']}x (bit-identical)"
        )

    if wanted("accumulator"):
        print(f"accumulator ... ", end="", flush=True)
        report["results"]["accumulator"] = accumulator = bench_accumulator(args)
        print(
            f"{accumulator['packets']:,} packets x {accumulator['streams']} streams: "
            f"run_stream {accumulator['stream_seconds']}s vs reference fold "
            f"{accumulator['reference_seconds']}s -> {accumulator['speedup']}x (bit-identical)"
        )

    if wanted("scoring"):
        print(f"scoring     ... ", end="", flush=True)
        report["results"]["scoring"] = scoring = bench_scoring(args)
        print(
            f"{scoring['bins']} bins x {scoring['streams']} streams x "
            f"{scoring['flows_per_bin']:,} flows: batched {scoring['batched_seconds']}s vs "
            f"per-stream loop {scoring['reference_seconds']}s -> {scoring['speedup']}x "
            "(bit-identical)"
        )

    if wanted("bounded_monitor"):
        print(f"bounded     ... ", end="", flush=True)
        report["results"]["bounded_monitor"] = bounded = bench_bounded_monitor(args)
        print(
            f"{bounded['packets']:,} sampled packets, max_flows {bounded['max_flows']}, "
            f"{bounded['evictions']:,} evictions (ratio {bounded['evict_ratio']}): engine "
            f"{bounded['engine_seconds']}s vs object table {bounded['object_seconds']}s -> "
            f"{bounded['speedup']}x (bit-identical)"
        )

    if wanted("end_to_end"):
        print(f"end to end  ... ", end="", flush=True)
        report["results"]["end_to_end"] = end_to_end = bench_end_to_end(args)
        print(
            f"{end_to_end['packets']:,} packets through source+samplers+accounting in "
            f"{end_to_end['seconds']}s -> {end_to_end['packets_per_second']:,} pkt/s"
        )

    if wanted("batch_transport"):
        print(f"transport   ... ", end="", flush=True)
        report["results"]["batch_transport"] = transport = bench_batch_transport(args)
        lanes = transport["lanes"]
        lanes_line = (
            f"; {lanes['streams']} streams: inline {lanes['inline_seconds']['median']}s, "
            f"{lanes['lanes']} lane(s) {lanes['lanes_seconds']['median']}s"
        )
        if "shm" in transport:
            print(
                f"serial {transport['serial_seconds']}s, shm {transport['shm']['unavailable']}"
                + lanes_line
            )
        else:
            print(
                f"medians of {transport['rounds']}: serial {transport['serial_seconds']}s, "
                f"shm jobs=1 cold {transport['shm_jobs1_cold']['median']}s / warm "
                f"{transport['shm_jobs1_warm']['median']}s, jobs=2 cold "
                f"{transport['shm_jobs2_cold']['median']}s / warm "
                f"{transport['shm_jobs2_warm']['median']}s -> "
                f"{transport['shm_overhead_ns_per_pkt']} ns/pkt transport overhead"
                + lanes_line
                + f", warm shm jobs=1 {lanes['shm_jobs1_seconds']['median']}s, "
                f"jobs=2 {lanes['shm_jobs2_seconds']['median']}s (bit-identical)"
                + (f" [{transport['note']}]" if "note" in transport else "")
            )

    if wanted("sweep"):
        print(f"sweep       ... ", end="", flush=True)
        report["results"]["sweep"] = sweep = bench_sweep(args)
        if _single_core():
            sweep["note"] = SINGLE_CORE_NOTE
        print(
            f"serial {sweep['serial_seconds']}s vs {sweep['jobs']}-proc "
            f"{sweep['parallel_seconds']}s -> speedup {sweep['speedup']}x (bit-identical)"
            + (f" [{sweep['note']}]" if "note" in sweep else "")
        )

    if wanted("sweep_store"):
        print(f"sweep store ... ", end="", flush=True)
        report["results"]["sweep_store"] = sweep_store = bench_sweep_store(args)
        print(
            f"{sweep_store['cells']} cells: cold {sweep_store['cold_seconds']}s vs "
            f"warm {sweep_store['warm_seconds']}s -> {sweep_store['warm_speedup']}x "
            "(warm pass fully cached)"
        )

    if wanted("store_index"):
        print(f"store index ... ", end="", flush=True)
        report["results"]["store_index"] = store_index = bench_store_index(args)
        cold = store_index["cold_sweep"]
        print(
            "put p50 "
            + ", ".join(f"{ms} ms at {size}" for size, ms in store_index["put_ms_p50"].items())
            + " stored runs; list() "
            + ", ".join(f"{ms} ms at {size}" for size, ms in store_index["list_ms"].items())
            + f"; cold sweep of {cold['cells']:,} cells in {cold['passes']} passes "
            f"{cold['seconds']}s"
        )

    if wanted("sweep_workers"):
        print(f"sweep workers . ", end="", flush=True)
        report["results"]["sweep_workers"] = sweep_workers = bench_sweep_workers(args)
        if _single_core():
            sweep_workers["note"] = SINGLE_CORE_NOTE
        print(
            f"{sweep_workers['cells']} cells, median of {sweep_workers['calls_per_side']} "
            f"calls a side: serial {sweep_workers['serial_seconds']}s "
            f"(IQR {sweep_workers['serial_spread']['q1']}-{sweep_workers['serial_spread']['q3']}s) "
            f"vs {sweep_workers['workers']} leased workers {sweep_workers['workers_seconds']}s "
            f"(IQR {sweep_workers['workers_spread']['q1']}-{sweep_workers['workers_spread']['q3']}s) "
            f"-> {sweep_workers['speedup']}x (bit-identical)"
            + (f" [degraded: {sweep_workers['degraded']}]" if sweep_workers["degraded"] else "")
            + (f" [{sweep_workers['note']}]" if "note" in sweep_workers else "")
        )

    if wanted("telemetry"):
        print(f"telemetry   ... ", end="", flush=True)
        report["results"]["telemetry"] = telemetry_section = bench_telemetry(args)
        print(
            f"disabled-mode loop overhead {telemetry_section['disabled_overhead_ratio']}x, "
            f"pipeline off {telemetry_section['disabled_seconds']}s vs "
            f"on {telemetry_section['enabled_seconds']}s (bit-identical)"
        )

    if wanted("streaming"):
        print(f"streaming   ... ", end="", flush=True)
        report["results"]["streaming"] = streaming = bench_streaming(args)
        print(", ".join(f"{key}={value}s" for key, value in streaming.items()))

    if wanted("scenarios"):
        print(f"scenarios   ... ", end="", flush=True)
        report["results"]["scenarios"] = scenarios = bench_scenarios(args)
        print(
            ", ".join(
                f"{name}={entry['packets_per_second']:,} pkt/s "
                f"({entry['assembly_speedup']}x)"
                for name, entry in scenarios.items()
            )
        )

    if wanted("import_cost"):
        print(f"import cost ... ", end="", flush=True)
        report["results"]["import_cost"] = import_cost = bench_import_cost(args)
        spawned = import_cost["spawn_process_run"]
        print(
            f"import repro {import_cost['import_seconds_min']}s "
            f"({import_cost['import_peak_rss_mb']} MB), SciPy loaded after import "
            f"{import_cost['scipy_loaded_after_import']}, after a serial run "
            f"{import_cost['scipy_loaded_after_run']}; spawn {spawned['backend']} run "
            f"jobs={spawned['jobs']} {spawned['seconds']}s (bit-identical)"
        )

    for name, section in report["results"].items():
        if name == "scenarios":
            # Keyed by scenario name: a section-level "host" would read
            # as one more scenario, so each entry carries it instead.
            for entry in section.values():
                entry["host"] = host
        else:
            section["host"] = host

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
